#ifndef MMM_TOOLS_MMMSA_SA_H_
#define MMM_TOOLS_MMMSA_SA_H_

#include <set>
#include <string>
#include <vector>

/// \file
/// mmmsa public interface: the one static analyzer for the
/// multi-model-management tree (DESIGN.md §6.4). Seven analyses, each a
/// group of rules — `--list-analyses` prints the catalog. Some rules follow
/// flow over a per-function CFG and the cross-file call graph; the rest
/// judge one token window at a time.
///
///   lock-order    lock-cycle, rank-inversion, lock-rank-missing,
///                 mutex-missing-guard, raw-std-mutex
///   status-flow   status-overwrite, status-drop, discarded-status
///   journal-path  unjournaled-delete, chunk-delete
///   layer-dag     layer-violation, include-cycle
///   store-access  direct-env-write, direct-env-read, direct-manager-open
///   determinism   banned-random
///   ownership     naked-new, naked-delete
///
/// Findings carry a `symbol` (lock id, function qualified name, include
/// edge, offending identifier) so the baseline can ratchet on stable
/// identity rather than line numbers. Suppress single findings in source
/// with a comment `MMMSA(<rule|analysis|*>): reason` on the finding line or
/// the line above.

namespace mmmsa {

struct Finding {
  std::string analysis;  ///< e.g. "lock-order"
  std::string rule;      ///< e.g. "rank-inversion"
  std::string file;      ///< path as scanned
  int line = 0;
  std::string symbol;  ///< stable identity for baselining
  std::string message;

  bool operator<(const Finding& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    return symbol < other.symbol;
  }
  bool operator==(const Finding& other) const {
    return file == other.file && line == other.line && rule == other.rule &&
           symbol == other.symbol;
  }
};

/// One analysis and the rules it reports.
struct Analysis {
  std::string name;
  std::vector<std::string> rules;
};

/// Every analysis with its rules, in report order.
const std::vector<Analysis>& Catalog();

struct SaOptions {
  /// Empty = everything; otherwise analysis or rule names from Catalog().
  std::set<std::string> only;
};

/// Recursively collects .h/.hpp/.cc/.cpp under each path (or the path itself
/// when it is a file), lexes + parses them, and runs the selected analyses.
/// Files sharing the prefix EffectivePath strips form one source tree, and
/// each tree is analyzed as its own program. Findings come back sorted and
/// deduplicated, with source-level suppressions applied. `io_errors`
/// (optional) receives paths that could not be read.
std::vector<Finding> AnalyzePaths(const std::vector<std::string>& paths,
                                  const SaOptions& options,
                                  std::vector<std::string>* io_errors);

/// One well-formed suppression comment found in the tree: the debt
/// `--list-suppressions` prints so CI logs show every waiver and its reason.
struct SuppressionNote {
  std::string file;
  int line = 0;
  std::string tag;     ///< rule or analysis name, or "*"
  std::string reason;  ///< text after the colon; empty = unjustified
};

/// Every suppression comment under `paths`, sorted by (file, line).
std::vector<SuppressionNote> ListSuppressions(
    const std::vector<std::string>& paths,
    std::vector<std::string>* io_errors);

/// Drops findings whose `rule|effective file|symbol` key appears in the
/// baseline file. Returns false when the baseline file cannot be read
/// (missing file is an error: pass --write-baseline to create one).
bool ApplyBaseline(const std::string& baseline_path,
                   std::vector<Finding>* findings, std::string* error);

/// Serializes findings as baseline lines (sorted, unique, with a header).
std::string FormatBaseline(const std::vector<Finding>& findings);

/// One human-readable line per finding plus a summary tail.
std::string FormatText(const std::vector<Finding>& findings);

/// Minimal SARIF 2.1.0 document (one run, one result per finding).
std::string FormatSarif(const std::vector<Finding>& findings);

/// Renders the whole-program lock-rank table and acquisition-edge list
/// (for `--dump-lock-graph`; also the source of the DESIGN.md table).
std::string DescribeLockGraph(const std::vector<std::string>& paths);

/// Strips leading fixture/scratch directories: the path suffix starting at
/// the rightmost "src/", "tools/", "tests/", or "bench/" marker, so fixture
/// trees that mirror the real layout analyze identically. Returns the input
/// unchanged when no marker occurs.
std::string EffectivePath(const std::string& path);

}  // namespace mmmsa

#endif  // MMM_TOOLS_MMMSA_SA_H_
