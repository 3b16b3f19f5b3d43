#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sa.h"

namespace {

void PrintUsage() {
  std::cout
      << "usage: mmmsa [options] <path>...\n"
         "\n"
         "The static analyzer for the mmm tree (DESIGN.md §6.4). Paths are\n"
         "files or directories; directories recurse over .h/.hpp/.cc/.cpp.\n"
         "Suppress one finding with a justified comment on the same or the\n"
         "preceding line:  // MMMSA(<rule|analysis|*>): <reason>\n"
         "\n"
         "options:\n"
         "  --analysis=<name>      run only this analysis or rule "
         "(repeatable)\n"
         "  --list-analyses        print every analysis with its rules and "
         "exit\n"
         "  --list-suppressions    print every suppression comment and exit\n"
         "  --baseline=<file>      drop findings listed in the ratchet "
         "baseline\n"
         "  --write-baseline=<file> write current findings as a new baseline\n"
         "  --sarif=<file>         also write findings as SARIF 2.1.0 JSON\n"
         "  --dump-lock-graph      print the lock rank table and acquisition "
         "edges\n"
         "  --help                 this text\n"
         "\n"
         "exit status: 0 clean, 1 findings, 2 usage or I/O error\n";
}

bool Known(const std::string& name) {
  for (const mmmsa::Analysis& analysis : mmmsa::Catalog()) {
    if (analysis.name == name) return true;
    for (const std::string& rule : analysis.rules) {
      if (rule == name) return true;
    }
  }
  return false;
}

bool WriteFileOrComplain(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "mmmsa: cannot write '" << path << "'\n";
    return false;
  }
  out << contents;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  mmmsa::SaOptions options;
  std::string baseline, write_baseline, sarif;
  bool dump_lock_graph = false;
  bool list_suppressions = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    if (arg == "--list-analyses") {
      for (const mmmsa::Analysis& analysis : mmmsa::Catalog()) {
        std::cout << analysis.name << "\n";
        for (const std::string& rule : analysis.rules) {
          std::cout << "  " << rule << "\n";
        }
      }
      return 0;
    }
    if (arg == "--list-suppressions") {
      list_suppressions = true;
      continue;
    }
    if (arg == "--dump-lock-graph") {
      dump_lock_graph = true;
      continue;
    }
    if (arg.rfind("--analysis=", 0) == 0) {
      std::string name = arg.substr(11);
      if (!Known(name)) {
        std::cerr << "mmmsa: unknown analysis or rule '" << name
                  << "' (see --list-analyses)\n";
        return 2;
      }
      options.only.insert(name);
      continue;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline = arg.substr(11);
      continue;
    }
    if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline = arg.substr(17);
      continue;
    }
    if (arg.rfind("--sarif=", 0) == 0) {
      sarif = arg.substr(8);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mmmsa: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    }
    paths.push_back(arg);
  }

  if (paths.empty()) {
    PrintUsage();
    return 2;
  }

  if (dump_lock_graph) {
    std::cout << mmmsa::DescribeLockGraph(paths);
    return 0;
  }

  std::vector<std::string> io_errors;
  if (list_suppressions) {
    std::vector<mmmsa::SuppressionNote> notes =
        mmmsa::ListSuppressions(paths, &io_errors);
    for (const std::string& path : io_errors) {
      std::cerr << "mmmsa: cannot read '" << path << "'\n";
    }
    for (const mmmsa::SuppressionNote& note : notes) {
      std::cout << note.file << ":" << note.line << ": [" << note.tag << "] "
                << (note.reason.empty() ? "(no reason given)" : note.reason)
                << "\n";
    }
    std::cout << "mmmsa: " << notes.size() << " suppression"
              << (notes.size() == 1 ? "" : "s") << "\n";
    return io_errors.empty() ? 0 : 2;
  }

  std::vector<mmmsa::Finding> findings =
      mmmsa::AnalyzePaths(paths, options, &io_errors);
  for (const std::string& path : io_errors) {
    std::cerr << "mmmsa: cannot read '" << path << "'\n";
  }

  if (!write_baseline.empty()) {
    if (!WriteFileOrComplain(write_baseline,
                             mmmsa::FormatBaseline(findings))) {
      return 2;
    }
    // SARIF in this mode carries the raw findings (no baseline applied),
    // matching what was just serialized.
    if (!sarif.empty() &&
        !WriteFileOrComplain(sarif, mmmsa::FormatSarif(findings))) {
      return 2;
    }
    std::cout << "mmmsa: wrote " << findings.size() << " baseline entr"
              << (findings.size() == 1 ? "y" : "ies") << " to "
              << write_baseline << "\n";
    return io_errors.empty() ? 0 : 2;
  }

  if (!baseline.empty()) {
    std::string error;
    if (!mmmsa::ApplyBaseline(baseline, &findings, &error)) {
      std::cerr << "mmmsa: " << error << "\n";
      return 2;
    }
  }

  if (!sarif.empty() &&
      !WriteFileOrComplain(sarif, mmmsa::FormatSarif(findings))) {
    return 2;
  }

  std::cout << mmmsa::FormatText(findings);
  if (!io_errors.empty()) return 2;
  return findings.empty() ? 0 : 1;
}
