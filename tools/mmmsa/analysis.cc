#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cfg.h"
#include "parser.h"
#include "sa.h"

namespace mmmsa {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// File collection + lexing.

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

std::vector<std::string> CollectSources(const std::vector<std::string>& paths,
                                        std::vector<std::string>* io_errors) {
  std::vector<std::string> out;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (auto it = fs::recursive_directory_iterator(
               path, fs::directory_options::skip_permission_denied, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
          out.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      out.push_back(path);
    } else if (io_errors != nullptr) {
      io_errors->push_back(path);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<LexedFile> LexSources(const std::vector<std::string>& paths,
                                  std::vector<std::string>* io_errors) {
  std::vector<LexedFile> files;
  for (const std::string& path : CollectSources(paths, io_errors)) {
    std::string contents;
    if (ReadFile(path, &contents)) {
      files.push_back(Lex(path, contents));
    } else if (io_errors != nullptr) {
      io_errors->push_back(path);
    }
  }
  return files;
}

/// The directory prefix EffectivePath strips. Files sharing it form one
/// source tree, and each tree is analyzed as its own program, so fixture
/// trees that reuse class and function names never merge.
std::string TreeRoot(const std::string& path) {
  return path.substr(0, path.size() - EffectivePath(path).size());
}

// ---------------------------------------------------------------------------
// Suppressions: `// MMMSA(<rule|analysis|*>): reason` on the finding line or
// the line above. Only a well-formed tag counts (a rule or analysis name, or
// `*`, then a colon), so comments that describe the syntax are not waivers.

std::vector<SuppressionNote> ScanSuppressions(const LexedFile& file) {
  // bench/suite/mmmbench.cc still carries the tag's old spelling, MMMLINT.
  // That directory only changes together with the benchmark it defines, so
  // the old spelling stays accepted until the benchmark is next revised.
  static constexpr std::string_view kOpeners[] = {"MMMSA(", "MMMLINT("};
  std::vector<SuppressionNote> notes;
  for (const Comment& c : file.comments) {
    for (std::string_view opener : kOpeners) {
      for (size_t pos = c.text.find(opener); pos != std::string::npos;
           pos = c.text.find(opener, pos + 1)) {
        size_t start = pos + opener.size();
        size_t close = c.text.find(')', start);
        if (close == std::string::npos) break;
        std::string tag = c.text.substr(start, close - start);
        bool named = tag == "*" ||
                     (!tag.empty() &&
                      tag.find_first_not_of(
                          "abcdefghijklmnopqrstuvwxyz0123456789-") ==
                          std::string::npos);
        if (!named || close + 1 >= c.text.size() || c.text[close + 1] != ':') {
          continue;
        }
        size_t reason_end = c.text.find('\n', close + 2);
        std::string reason = c.text.substr(close + 2, reason_end - close - 2);
        reason.erase(0, reason.find_first_not_of(' '));
        reason.erase(reason.find_last_not_of(" \r") + 1);
        notes.push_back({file.path, c.line, std::move(tag), std::move(reason)});
      }
    }
  }
  return notes;
}

class Suppressions {
 public:
  explicit Suppressions(const std::vector<LexedFile>& files) {
    for (const LexedFile& f : files) {
      for (SuppressionNote& note : ScanSuppressions(f)) {
        tags_.insert({note.file, note.line, std::move(note.tag)});
      }
    }
  }

  /// Keyed on the file as scanned, never its effective path: two fixture
  /// trees holding the same effective path must not waive each other.
  bool Covers(const Finding& f) const {
    for (int line : {f.line, f.line - 1}) {
      for (const std::string& tag : {std::string("*"), f.rule, f.analysis}) {
        if (tags_.count({f.file, line, tag}) != 0) return true;
      }
    }
    return false;
  }

 private:
  std::set<std::tuple<std::string, int, std::string>> tags_;
};

// ---------------------------------------------------------------------------
// Lock-expression and callee resolution.

struct Analyzer;

/// Splits a member chain like `c . topo_mu_` / `store_ -> mu_` into
/// segments; each segment may carry a trailing `()` call marker.
struct ChainSeg {
  std::string name;
  bool call = false;
};

/// Parses tokens [begin, end) as `seg (. | ->) seg ...`, each seg an ident
/// optionally followed by `( )` (empty-arg accessor). Leading `*`/`&`/`this->`
/// is tolerated. Returns empty when the shape does not fit.
std::vector<ChainSeg> ParseChain(const std::vector<Token>& toks, size_t begin,
                                 size_t end) {
  std::vector<ChainSeg> chain;
  size_t i = begin;
  while (i < end && (IsPunct(&toks[i], "*") || IsPunct(&toks[i], "&"))) ++i;
  if (i < end && IsIdent(&toks[i], "this") && i + 1 < end &&
      IsPunct(&toks[i + 1], "->")) {
    i += 2;  // `this->member` resolves like a bare member
  }
  while (i < end) {
    if (!IsAnyIdent(&toks[i])) return {};
    ChainSeg seg;
    seg.name = toks[i].text;
    ++i;
    if (i < end && IsPunct(&toks[i], "(")) {
      size_t close = SkipParens(toks, i);
      if (close - i != 2) return {};  // accessor chains only: no arguments
      seg.call = true;
      i = close;
    }
    chain.push_back(std::move(seg));
    if (i >= end) break;
    if (!IsPunct(&toks[i], ".") && !IsPunct(&toks[i], "->")) return {};
    ++i;
    if (i >= end) return {};  // trailing separator: malformed
  }
  return chain;
}

struct Analyzer {
  explicit Analyzer(const Program& p) : program(p) {}
  const Program& program;

  /// Walks the enclosing-class chain from `scope` outward looking up `key`
  /// with `probe`; returns the first hit.
  template <typename Fn>
  std::string ProbeScopes(const std::string& scope, Fn probe) const {
    std::string s = scope;
    while (true) {
      std::string hit = probe(s);
      if (!hit.empty()) return hit;
      if (s.empty()) return "";
      size_t pos = s.rfind("::");
      s = pos == std::string::npos ? "" : s.substr(0, pos);
    }
  }

  /// Resolves the class of chain segment 0 in the context of `fn`.
  std::string ResolveChainBase(const FunctionInfo& fn,
                               const ChainSeg& seg) const {
    if (seg.call) {
      // Accessor call at the head: a method of the enclosing class or a
      // free function with a unique class-valued return.
      const FunctionInfo* callee = nullptr;
      std::string q = ProbeScopes(fn.class_scope, [&](const std::string& s) {
        std::string cand = s.empty() ? seg.name : s + "::" + seg.name;
        return program.by_qualified.count(cand) != 0 ? cand : std::string();
      });
      if (!q.empty()) {
        callee = &program.functions[program.by_qualified.at(q)[0]];
        return callee->return_class;
      }
      return "";
    }
    auto vt = fn.var_types.find(seg.name);
    if (vt != fn.var_types.end()) return vt->second;
    return ProbeScopes(fn.class_scope, [&](const std::string& s) {
      if (s.empty()) return std::string();
      auto cit = program.classes.find(s);
      if (cit == program.classes.end()) return std::string();
      auto mt = cit->second.member_types.find(seg.name);
      return mt != cit->second.member_types.end() ? mt->second : std::string();
    });
  }

  /// Steps from class `cls` through one chain segment.
  std::string ResolveChainStep(const std::string& cls,
                               const ChainSeg& seg) const {
    auto cit = program.classes.find(cls);
    if (cit == program.classes.end()) return "";
    if (seg.call) {
      auto rit = cit->second.method_return_class.find(seg.name);
      return rit != cit->second.method_return_class.end() ? rit->second : "";
    }
    auto mt = cit->second.member_types.find(seg.name);
    return mt != cit->second.member_types.end() ? mt->second : "";
  }

  /// Resolves a lock expression (tokens of a guard-constructor argument or
  /// an MMM_REQUIRES spelling) to a lock id; "" when unknown.
  std::string ResolveLockExpr(const FunctionInfo& fn,
                              const std::vector<Token>& toks, size_t begin,
                              size_t end) const {
    std::vector<ChainSeg> chain = ParseChain(toks, begin, end);
    if (chain.empty()) return "";
    if (chain.size() == 1) {
      const ChainSeg& seg = chain[0];
      if (seg.call) {
        // `MutexLock lock(SinkMutex());` — the returned-lock idiom.
        std::string q = ProbeScopes(fn.class_scope, [&](const std::string& s) {
          std::string cand = s.empty() ? seg.name : s + "::" + seg.name;
          return program.returned_locks.count(cand) != 0 ? cand
                                                         : std::string();
        });
        if (!q.empty()) return program.returned_locks.at(q);
        return "";
      }
      // Bare lock member of the enclosing class chain...
      std::string id = ProbeScopes(fn.class_scope, [&](const std::string& s) {
        if (s.empty()) return std::string();
        std::string cand = s + "::" + seg.name;
        return program.lock_index.count(cand) != 0 ? cand : std::string();
      });
      if (!id.empty()) return id;
      // ...or a unique lock member name anywhere.
      auto mit = program.locks_by_member.find(seg.name);
      if (mit != program.locks_by_member.end() && mit->second.size() == 1) {
        return mit->second[0];
      }
      return "";
    }
    // Chain: resolve the receiver class, then the final lock member.
    std::string cls = ResolveChainBase(fn, chain[0]);
    for (size_t i = 1; i + 1 < chain.size() && !cls.empty(); ++i) {
      cls = ResolveChainStep(cls, chain[i]);
    }
    const std::string& leaf = chain.back().name;
    if (!cls.empty()) {
      std::string cand = cls + "::" + leaf;
      if (program.lock_index.count(cand) != 0) return cand;
    }
    auto mit = program.locks_by_member.find(leaf);
    if (mit != program.locks_by_member.end() && mit->second.size() == 1) {
      return mit->second[0];
    }
    return "";
  }

  /// Resolves a call site ending at the callee ident `toks[name_idx]`
  /// (followed by `(`). `chain_begin` is the first token of the receiver
  /// chain (== name_idx for a bare call). Returns function indices.
  std::vector<size_t> ResolveCallee(const FunctionInfo& fn,
                                    const std::vector<Token>& toks,
                                    size_t chain_begin, size_t name_idx) const {
    const std::string& name = toks[name_idx].text;
    // Qualified call `C::m(...)` — must win over the bare-call probe, or
    // `Shard::Open(...)` inside a Coordinator method would resolve to
    // Coordinator::Open.
    if (name_idx >= 1 && IsPunct(&toks[name_idx - 1], "::")) {
      if (name_idx >= 2 && IsAnyIdent(&toks[name_idx - 2])) {
        std::string cls = mmmsa::ResolveClassName(program, fn.class_scope,
                                                  toks[name_idx - 2].text);
        if (!cls.empty()) {
          auto qit = program.by_qualified.find(cls + "::" + name);
          if (qit != program.by_qualified.end()) return qit->second;
        }
      }
      return {};  // namespace-qualified (std::move, mmm::...) or unknown
    }
    if (chain_begin == name_idx) {
      // Bare call: enclosing class method first, then a free function.
      std::string q = ProbeScopes(fn.class_scope, [&](const std::string& s) {
        if (s.empty()) return std::string();
        std::string cand = s + "::" + name;
        return program.by_qualified.count(cand) != 0 ? cand : std::string();
      });
      if (!q.empty()) return program.by_qualified.at(q);
      auto fit = program.free_by_name.find(name);
      if (fit != program.free_by_name.end() && fit->second.size() == 1) {
        return fit->second;
      }
      return {};
    }
    // Member call through a receiver chain.
    std::vector<ChainSeg> chain = ParseChain(toks, chain_begin, name_idx);
    if (chain.empty()) return {};
    std::string cls = ResolveChainBase(fn, chain[0]);
    for (size_t i = 1; i < chain.size() && !cls.empty(); ++i) {
      cls = ResolveChainStep(cls, chain[i]);
    }
    if (cls.empty()) return {};
    // Only the exact class: base-class walks would guess.
    auto qit = program.by_qualified.find(cls + "::" + name);
    if (qit != program.by_qualified.end()) return qit->second;
    return {};
  }
};

/// Finds the start of the receiver chain for a call whose name ident sits at
/// `name_idx`: walks back over `seg (.|->) seg` links. Returns name_idx for
/// a bare call.
size_t ChainStart(const std::vector<Token>& toks, size_t name_idx) {
  size_t i = name_idx;
  while (i >= 2 &&
         (IsPunct(&toks[i - 1], ".") || IsPunct(&toks[i - 1], "->"))) {
    size_t prev = i - 2;
    if (IsPunct(&toks[prev], ")")) {
      // accessor call: scan back to its `(` then the ident before it
      int depth = 0;
      size_t j = prev;
      while (true) {
        if (IsPunct(&toks[j], ")")) ++depth;
        if (IsPunct(&toks[j], "(") && --depth == 0) break;
        if (j == 0) return i;
        --j;
      }
      if (j == 0 || !IsAnyIdent(&toks[j - 1])) return i;
      i = j - 1;
      continue;
    }
    if (!IsAnyIdent(&toks[prev])) return i;
    i = prev;
  }
  return i;
}

bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "while",      "for",         "switch",  "return",
      "sizeof",   "alignof",    "decltype",    "new",     "delete",
      "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
      "assert",   "defined",    "catch",       "throw",
  };
  return kKeywords.count(s) != 0 || s.rfind("MMM_", 0) == 0;
}

/// Strongly connected components of `adj` that hold a cycle (more than one
/// node, or a self-edge), each sorted. Iterative Tarjan, safe on deep graphs.
std::vector<std::vector<std::string>> Cycles(
    const std::map<std::string, std::vector<std::string>>& adj) {
  std::map<std::string, int> index, low;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> cycles;
  int counter = 0;
  struct Frame {
    std::string node;
    size_t next = 0;
  };
  static const std::vector<std::string> kNone;
  auto succs_of =
      [&](const std::string& node) -> const std::vector<std::string>& {
    auto it = adj.find(node);
    return it == adj.end() ? kNone : it->second;
  };
  for (const auto& [start, unused] : adj) {
    if (index.count(start) != 0) continue;
    std::vector<Frame> frames{{start, 0}};
    index[start] = low[start] = counter++;
    stack.push_back(start);
    on_stack.insert(start);
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const std::vector<std::string>& succs = succs_of(fr.node);
      if (fr.next < succs.size()) {
        const std::string& next = succs[fr.next++];
        if (index.count(next) == 0) {
          index[next] = low[next] = counter++;
          stack.push_back(next);
          on_stack.insert(next);
          frames.push_back(Frame{next, 0});
        } else if (on_stack.count(next) != 0) {
          low[fr.node] = std::min(low[fr.node], index[next]);
        }
        continue;
      }
      if (low[fr.node] == index[fr.node]) {
        std::vector<std::string> scc;
        while (true) {
          std::string top = stack.back();
          stack.pop_back();
          on_stack.erase(top);
          scc.push_back(top);
          if (top == fr.node) break;
        }
        const std::vector<std::string>& self = succs_of(scc[0]);
        if (scc.size() > 1 ||
            std::find(self.begin(), self.end(), scc[0]) != self.end()) {
          std::sort(scc.begin(), scc.end());
          cycles.push_back(std::move(scc));
        }
      }
      std::string done = fr.node;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] = std::min(low[frames.back().node], low[done]);
      }
    }
  }
  return cycles;
}

// ---------------------------------------------------------------------------
// Analysis 1: lock-order graph.

struct LockEdge {
  std::string from, to;
  std::string file;
  int line = 0;
  std::string via;  ///< qualified function where the edge was observed
};

struct CallSite {
  size_t callee = 0;        ///< index into program.functions
  std::vector<std::string> held;
  std::string file;
  int line = 0;
};

struct FnLockFacts {
  std::vector<std::string> direct;  ///< lock ids acquired in the body
  std::vector<CallSite> calls;
};

class LockOrderAnalysis {
 public:
  LockOrderAnalysis(const Program& program, const Analyzer& az)
      : program_(program), az_(az) {}

  void Run(std::vector<Finding>* findings) {
    facts_.resize(program_.functions.size());
    for (size_t i = 0; i < program_.functions.size(); ++i) {
      CollectFunction(i);
    }
    PropagateSummaries();
    AddCallEdges();
    ReportMissingRanks(findings);
    ReportUnguardedMutexes(findings);
    ReportInversions(findings);
    ReportCycles(findings);
  }

  const std::map<std::pair<std::string, std::string>, LockEdge>& edges() const {
    return edges_;
  }

 private:
  void AddEdge(const std::string& from, const std::string& to,
               const std::string& file, int line, const std::string& via) {
    auto key = std::make_pair(from, to);
    if (edges_.count(key) == 0) {
      edges_[key] = LockEdge{from, to, file, line, via};
    }
  }

  /// Scans one token run for guard declarations and call sites, with `held`
  /// live for the rest of the enclosing statement sequence.
  void ScanTokens(size_t fn_idx, const std::vector<Token>& toks,
                  std::vector<std::string>* held) {
    const FunctionInfo& fn = program_.functions[fn_idx];
    for (size_t i = 0; i < toks.size(); ++i) {
      if (!IsAnyIdent(&toks[i])) continue;
      const std::string& t = toks[i].text;
      if (t == "MutexLock" || t == "ReaderMutexLock" ||
          t == "WriterMutexLock") {
        // `MutexLock name ( expr ) ;`
        if (i + 2 < toks.size() && IsAnyIdent(&toks[i + 1]) &&
            IsPunct(&toks[i + 2], "(")) {
          size_t close = SkipParens(toks, i + 2);
          std::string id =
              az_.ResolveLockExpr(fn, toks, i + 3, close > i + 2 ? close - 1
                                                                 : i + 3);
          if (!id.empty()) {
            for (const std::string& h : *held) {
              AddEdge(h, id, fn.file, toks[i].line, fn.qualified);
            }
            facts_[fn_idx].direct.push_back(id);
            held->push_back(id);
          }
          i = close > i ? close - 1 : i;
        }
        continue;
      }
      // Call site: ident followed by `(`, not a keyword/macro, not a guard.
      if (i + 1 < toks.size() && IsPunct(&toks[i + 1], "(") &&
          !IsCallKeyword(t)) {
        size_t chain_begin = ChainStart(toks, i);
        std::vector<size_t> callees =
            az_.ResolveCallee(fn, toks, chain_begin, i);
        for (size_t callee : callees) {
          if (callee == fn_idx) continue;  // recursion adds nothing
          facts_[fn_idx].calls.push_back(
              CallSite{callee, *held, fn.file, toks[i].line});
        }
      }
    }
  }

  void WalkStmts(size_t fn_idx, const std::vector<Stmt>& stmts,
                 std::vector<std::string> held) {
    for (const Stmt& s : stmts) {
      size_t held_before = held.size();
      ScanTokens(fn_idx, s.tokens, &held);
      // Guards declared inside a condition/plain stmt stay held for the
      // nested bodies and the following siblings (RAII scope = enclosing
      // block, which this sequence models).
      WalkStmts(fn_idx, s.body, held);
      if (s.has_else) {
        std::vector<std::string> else_held(held.begin(),
                                           held.begin() + held_before);
        // else branch: guards from the then-path are out of scope; guards
        // from the condition (rare) conservatively dropped too.
        WalkStmts(fn_idx, s.else_body, else_held);
      }
    }
  }

  void CollectFunction(size_t fn_idx) {
    const FunctionInfo& fn = program_.functions[fn_idx];
    std::vector<std::string> held;
    for (const std::string& spelling : fn.requires_locks) {
      LexedFile lexed = Lex("<requires>", spelling);
      std::string id =
          az_.ResolveLockExpr(fn, lexed.tokens, 0, lexed.tokens.size());
      if (!id.empty()) held.push_back(id);
    }
    WalkStmts(fn_idx, fn.body, std::move(held));
  }

  void PropagateSummaries() {
    summaries_.assign(program_.functions.size(), {});
    for (size_t i = 0; i < facts_.size(); ++i) {
      summaries_[i].insert(facts_[i].direct.begin(), facts_[i].direct.end());
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < facts_.size(); ++i) {
        for (const CallSite& cs : facts_[i].calls) {
          for (const std::string& id : summaries_[cs.callee]) {
            if (summaries_[i].insert(id).second) changed = true;
          }
        }
      }
    }
  }

  void AddCallEdges() {
    for (size_t i = 0; i < facts_.size(); ++i) {
      for (const CallSite& cs : facts_[i].calls) {
        if (cs.held.empty()) continue;
        for (const std::string& acquired : summaries_[cs.callee]) {
          for (const std::string& h : cs.held) {
            AddEdge(h, acquired, cs.file, cs.line,
                    program_.functions[i].qualified);
          }
        }
      }
    }
  }

  void ReportMissingRanks(std::vector<Finding>* findings) {
    for (const LockDecl& lock : program_.locks) {
      if (EffectivePath(lock.file).rfind("src/", 0) != 0) continue;
      if (lock.rank >= 0) continue;
      Finding f;
      f.analysis = "lock-order";
      f.rule = "lock-rank-missing";
      f.file = lock.file;
      f.line = lock.line;
      f.symbol = lock.id;
      f.message = "lock '" + lock.id +
                  "' has no MMM_LOCK_RANK annotation; every Mutex/SharedMutex "
                  "under src/ must declare its place in the global order "
                  "(DESIGN.md §6.2)";
      findings->push_back(std::move(f));
    }
  }

  void ReportUnguardedMutexes(std::vector<Finding>* findings) {
    for (const LockDecl& lock : program_.locks) {
      if (!lock.unguarded ||
          EffectivePath(lock.file).find("common/thread_annotations.h") !=
              std::string::npos) {
        continue;
      }
      Finding f;
      f.analysis = "lock-order";
      f.rule = "mutex-missing-guard";
      f.file = lock.file;
      f.line = lock.line;
      f.symbol = lock.id;
      f.message = "class declares mutex member '" + lock.id +
                  "' but annotates no field with MMM_GUARDED_BY: state the "
                  "locking contract (or suppress with a reason if the mutex "
                  "guards an external resource)";
      findings->push_back(std::move(f));
    }
  }

  void ReportInversions(std::vector<Finding>* findings) {
    for (const auto& [key, edge] : edges_) {
      const LockDecl* from = program_.FindLock(edge.from);
      const LockDecl* to = program_.FindLock(edge.to);
      if (from == nullptr || to == nullptr) continue;
      if (from->rank < 0 || to->rank < 0) continue;
      if (from->rank < to->rank) continue;
      Finding f;
      f.analysis = "lock-order";
      f.rule = "rank-inversion";
      f.file = edge.file;
      f.line = edge.line;
      f.symbol = edge.from + "->" + edge.to;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "'%s' (rank %d) acquired while holding '%s' (rank %d) in "
                    "%s; acquisition order must follow strictly increasing "
                    "ranks",
                    edge.to.c_str(), to->rank, edge.from.c_str(), from->rank,
                    edge.via.c_str());
      f.message = buf;
      findings->push_back(std::move(f));
    }
  }

  void ReportCycles(std::vector<Finding>* findings) {
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [key, edge] : edges_) adj[edge.from].push_back(edge.to);
    for (const std::vector<std::string>& scc : Cycles(adj)) {
      std::string joined;
      for (const std::string& id : scc) {
        joined += joined.empty() ? id : "<->" + id;
      }
      // Anchor the finding at the lexicographically first in-cycle edge.
      const LockEdge* site = nullptr;
      for (const auto& [key, edge] : edges_) {
        if (std::binary_search(scc.begin(), scc.end(), edge.from) &&
            std::binary_search(scc.begin(), scc.end(), edge.to)) {
          site = &edge;
          break;
        }
      }
      Finding f;
      f.analysis = "lock-order";
      f.rule = "lock-cycle";
      f.file = site != nullptr ? site->file : "<unknown>";
      f.line = site != nullptr ? site->line : 0;
      f.symbol = joined;
      f.message =
          "acquisition-order cycle between locks {" + joined +
          "}: two threads taking them in opposite orders can deadlock";
      findings->push_back(std::move(f));
    }
  }

  const Program& program_;
  const Analyzer& az_;
  std::vector<FnLockFacts> facts_;
  std::vector<std::set<std::string>> summaries_;
  std::map<std::pair<std::string, std::string>, LockEdge> edges_;
};

// ---------------------------------------------------------------------------
// Analysis 2: Status dataflow.

class StatusFlowAnalysis {
 public:
  explicit StatusFlowAnalysis(const Program& program) : program_(program) {}

  void Run(std::vector<Finding>* findings) {
    for (const FunctionInfo& fn : program_.functions) {
      AnalyzeFunction(fn, findings);
    }
  }

 private:
  enum class Mark { kNone, kLive, kConsumed };

  struct VarState {
    Mark mark = Mark::kNone;
    std::set<int> origins;  ///< CFG node ids whose assignment is unchecked

    bool Join(const VarState& other) {
      // Optimistic join: a path that consumed the value clears the alarm.
      VarState merged;
      if (mark == Mark::kConsumed || other.mark == Mark::kConsumed) {
        merged.mark = Mark::kConsumed;
      } else if (mark == Mark::kLive || other.mark == Mark::kLive) {
        merged.mark = Mark::kLive;
        merged.origins = origins;
        merged.origins.insert(other.origins.begin(), other.origins.end());
      } else {
        merged.mark = Mark::kNone;
      }
      bool changed = merged.mark != mark || merged.origins != origins;
      *this = merged;
      return changed;
    }
  };

  /// Declared Status locals: stmt-initial `Status name` / `mmm::Status name`
  /// (also after `const`). Returns name -> decl line.
  static void FindDecl(const Stmt& s, std::map<std::string, int>* decls) {
    const std::vector<Token>& toks = s.tokens;
    size_t i = 0;
    if (IsIdent(At(toks, i), "const")) ++i;
    if (IsIdent(At(toks, i), "mmm") && IsPunct(At(toks, i + 1), "::")) i += 2;
    if (!IsIdent(At(toks, i), "Status")) return;
    if (!IsAnyIdent(At(toks, i + 1))) return;
    (*decls)[toks[i + 1].text] = s.line;
  }

  static bool Mentions(const std::vector<Token>& toks, const std::string& var,
                       size_t from = 0) {
    for (size_t i = from; i < toks.size(); ++i) {
      if (!IsIdent(&toks[i], var)) continue;
      if (i > 0 &&
          (IsPunct(&toks[i - 1], ".") || IsPunct(&toks[i - 1], "->"))) {
        continue;  // member of something else that happens to share the name
      }
      return true;
    }
    return false;
  }

  /// True when the RHS tokens are a benign OK construction.
  static bool IsOkConstruction(const std::vector<Token>& toks, size_t from) {
    for (size_t i = from; i < toks.size(); ++i) {
      if (IsPunct(&toks[i], ";")) break;
      if (IsIdent(&toks[i], "OK") || IsIdent(&toks[i], "OkStatus")) {
        return true;
      }
      if (toks[i].kind == TokenKind::kIdent && toks[i].text != "Status" &&
          toks[i].text != "mmm") {
        return false;
      }
    }
    return false;
  }

  void AnalyzeFunction(const FunctionInfo& fn, std::vector<Finding>* findings) {
    Cfg cfg = BuildCfg(fn.body);
    if (cfg.entry < 0) return;

    // Collect candidate variables from declaration statements.
    std::map<std::string, int> decls;
    for (int n = 0; n < static_cast<int>(cfg.nodes.size()); ++n) {
      const Stmt* s = cfg.nodes[n].stmt;
      if (s != nullptr && s->kind == Stmt::Kind::kPlain) FindDecl(*s, &decls);
    }
    for (const auto& [var, decl_line] : decls) {
      AnalyzeVar(fn, cfg, var, findings);
    }
  }

  /// Transfer function for one node; may emit an overwrite finding.
  VarState Transfer(const FunctionInfo& fn, const Cfg& cfg, int node,
                    const std::string& var, VarState in,
                    std::set<std::string>* reported,
                    std::vector<Finding>* findings) {
    const Stmt* s = cfg.nodes[node].stmt;
    if (s == nullptr) {  // synthetic exit: falling off the end drops `var`
      if (in.mark == Mark::kLive) {
        for (int origin : in.origins) {
          const Stmt* os = cfg.nodes[origin].stmt;
          ReportDrop(fn, os != nullptr ? os->line : fn.line, var,
                     "falls out of scope", reported, findings);
        }
      }
      return in;
    }
    const std::vector<Token>& toks = s->tokens;

    // Declaration statement for this var?
    bool is_decl = false;
    {
      std::map<std::string, int> d;
      if (s->kind == Stmt::Kind::kPlain) FindDecl(*s, &d);
      is_decl = d.count(var) != 0;
    }
    if (is_decl) {
      // `Status v = <init>;` — live iff initialized with a non-OK call.
      size_t eq = 0;
      for (size_t i = 0; i < toks.size(); ++i) {
        if (IsPunct(&toks[i], "=")) {
          eq = i;
          break;
        }
      }
      VarState out;
      if (eq == 0) {
        out.mark = Mark::kConsumed;  // default-constructed OK status
      } else if (IsOkConstruction(toks, eq + 1)) {
        out.mark = Mark::kConsumed;
      } else {
        out.mark = Mark::kLive;
        out.origins = {node};
      }
      return out;
    }

    // Head assignment `v = <rhs>;`?
    if (s->kind == Stmt::Kind::kPlain && toks.size() >= 2 &&
        IsIdent(&toks[0], var) && IsPunct(&toks[1], "=")) {
      bool rhs_reads_v = Mentions(toks, var, 2);
      if (!rhs_reads_v && in.mark == Mark::kLive) {
        for (int origin : in.origins) {
          if (origin == node) continue;  // loop re-assignment of itself
          const Stmt* os = cfg.nodes[origin].stmt;
          std::string key = var + "@" + std::to_string(s->line) + "<-" +
                            std::to_string(os != nullptr ? os->line : 0);
          if (!reported->insert("ow:" + key).second) continue;
          Finding f;
          f.analysis = "status-flow";
          f.rule = "status-overwrite";
          f.file = fn.file;
          f.line = s->line;
          f.symbol = fn.qualified + "::" + var;
          f.message = "'" + var + "' still holds the unchecked Status from " +
                      "line " +
                      std::to_string(os != nullptr ? os->line : 0) +
                      " when it is overwritten here in " + fn.qualified +
                      "; check or propagate it first";
          findings->push_back(std::move(f));
        }
      }
      VarState out;
      if (IsOkConstruction(toks, 2)) {
        out.mark = Mark::kConsumed;
      } else {
        out.mark = Mark::kLive;
        out.origins = {node};
      }
      return out;
    }

    // Return statement: mentioning v propagates it; otherwise a live v is
    // dropped on this early-return path.
    if (s->kind == Stmt::Kind::kReturn) {
      if (Mentions(toks, var)) {
        VarState out;
        out.mark = Mark::kConsumed;
        return out;
      }
      if (in.mark == Mark::kLive) {
        ReportDrop(fn, s->line, var,
                   "is dropped by this return", reported, findings);
        VarState out;
        out.mark = Mark::kConsumed;  // report each return once
        return out;
      }
      return in;
    }

    // Any other mention consumes (reads, passes, .ok() checks, macro use).
    if (Mentions(toks, var)) {
      VarState out;
      out.mark = Mark::kConsumed;
      return out;
    }
    return in;
  }

  void ReportDrop(const FunctionInfo& fn, int line,
                  const std::string& var, const std::string& how,
                  std::set<std::string>* reported,
                  std::vector<Finding>* findings) {
    std::string key = "dr:" + var + "@" + std::to_string(line) + ":" + how;
    if (!reported->insert(key).second) return;
    Finding f;
    f.analysis = "status-flow";
    f.rule = "status-drop";
    f.file = fn.file;
    f.line = line;
    f.symbol = fn.qualified + "::" + var;
    f.message = "Status '" + var + "' in " + fn.qualified +
                " is assigned but never checked before it " + how +
                "; propagate it or check .ok()";
    findings->push_back(std::move(f));
  }

  void AnalyzeVar(const FunctionInfo& fn, const Cfg& cfg,
                  const std::string& var, std::vector<Finding>* findings) {
    size_t n = cfg.nodes.size();
    std::vector<VarState> in_state(n), out_state(n);
    std::set<std::string> reported;
    std::vector<Finding> staged;

    // Two rounds: one to reach the fixpoint silently, then one reporting
    // pass over the stable states (so loop back-edges cannot double-report
    // with partial states).
    for (int round = 0; round < 2; ++round) {
      std::vector<Finding>* sink = round == 0 ? nullptr : &staged;
      bool changed = true;
      int iterations = 0;
      while (changed && iterations++ < 64) {
        changed = false;
        for (int node = 0; node < static_cast<int>(n); ++node) {
          VarState in;
          bool has_pred = false;
          for (int p = 0; p < static_cast<int>(n); ++p) {
            for (int succ : cfg.nodes[p].succs) {
              if (succ != node) continue;
              if (!has_pred) {
                in = out_state[p];
                has_pred = true;
              } else {
                in.Join(out_state[p]);
              }
            }
          }
          if (node == cfg.entry && !has_pred) in = VarState{};
          in_state[node] = in;
          std::vector<Finding> scratch;
          VarState out =
              Transfer(fn, cfg, node, var, in, &reported,
                       sink != nullptr ? sink : &scratch);
          if (out.mark != out_state[node].mark ||
              out.origins != out_state[node].origins) {
            out_state[node] = out;
            changed = true;
          }
        }
        if (sink != nullptr) break;  // reporting pass: single sweep
      }
      if (round == 0) reported.clear();
    }
    findings->insert(findings->end(), staged.begin(), staged.end());
  }

  const Program& program_;
};

// ---------------------------------------------------------------------------
// Analysis 3: journal-protocol conformance.

class JournalPathAnalysis {
 public:
  JournalPathAnalysis(const Program& program, const Analyzer& az)
      : program_(program), az_(az) {}

  void Run(std::vector<Finding>* findings) {
    size_t n = program_.functions.size();
    std::vector<std::vector<Token>> flat(n);
    for (size_t i = 0; i < n; ++i) {
      Flatten(program_.functions[i].body, &flat[i]);
    }

    // Round 1: direct primitives. A function whose file is part of the
    // storage/CAS machinery is sanctioned — deletions there ARE the
    // journal/sweep implementation.
    std::vector<bool> raw(n, false);
    std::vector<Finding> site(n);
    for (size_t i = 0; i < n; ++i) {
      const FunctionInfo& fn = program_.functions[i];
      if (Sanctioned(fn)) continue;
      bool intent = false;
      for (size_t t = 0; t < flat[i].size(); ++t) {
        const Token& tok = flat[i][t];
        if (IsAnyIdent(&tok) && kIntentIdents.count(tok.text) != 0) {
          intent = true;
        }
        if (intent) break;
        if (IsDeletePrimitive(flat[i], t)) {
          raw[i] = true;
          site[i] = MakeFinding(fn, tok.line,
                                "calls blob/file deletion ('" + tok.text +
                                    "') with no preceding journaled intent");
          break;
        }
      }
    }

    // Fixpoint: calling a raw deleter without preceding intent makes the
    // caller raw too (the violation floats up to the outermost entry).
    std::vector<std::vector<std::pair<size_t, int>>> callsites(n);
    for (size_t i = 0; i < n; ++i) {
      const FunctionInfo& fn = program_.functions[i];
      for (size_t t = 0; t + 1 < flat[i].size(); ++t) {
        if (!IsAnyIdent(&flat[i][t]) || !IsPunct(&flat[i][t + 1], "(")) {
          continue;
        }
        if (IsCallKeyword(flat[i][t].text)) continue;
        size_t chain_begin = ChainStart(flat[i], t);
        for (size_t callee : az_.ResolveCallee(fn, flat[i], chain_begin, t)) {
          if (callee != i) {
            callsites[i].push_back({callee, static_cast<int>(t)});
          }
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < n; ++i) {
        if (raw[i]) continue;
        const FunctionInfo& fn = program_.functions[i];
        if (Sanctioned(fn)) continue;
        for (const auto& [callee, tok_idx] : callsites[i]) {
          if (!raw[callee]) continue;
          bool intent = false;
          for (int t = 0; t < tok_idx; ++t) {
            if (IsAnyIdent(&flat[i][t]) &&
                kIntentIdents.count(flat[i][t].text) != 0) {
              intent = true;
              break;
            }
          }
          if (intent) continue;
          raw[i] = true;
          site[i] = MakeFinding(
              fn, flat[i][tok_idx].line,
              "reaches blob/file deletion via '" +
                  program_.functions[callee].qualified +
                  "' with no preceding journaled intent on this path");
          changed = true;
          break;
        }
      }
    }

    // Report the raw functions nothing calls: the outermost unjournaled
    // entry points. Raw functions that only discharged callers reach are
    // covered at those call sites.
    std::vector<bool> has_caller(n, false);
    for (size_t i = 0; i < n; ++i) {
      for (const auto& [callee, tok_idx] : callsites[i]) {
        has_caller[callee] = true;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (raw[i] && !has_caller[i]) findings->push_back(site[i]);
    }
  }

 private:
  inline static const std::set<std::string> kIntentIdents = {
      "Begin",              // CommitJournal::Begin — journaled write intent
      "OnManifestDeleted",  // CAS refcount decrement before blob removal
      "FindOrphanBlobs",    // sweep candidates derived from the journal
      "PendingBlobs",       // journal-replay pending set
  };

  /// The storage/CAS machinery, and any Env's own DeleteFile wherever it
  /// lives: an override of the primitive implements deletion rather than
  /// calling it.
  bool Sanctioned(const FunctionInfo& fn) const {
    std::string path = EffectivePath(fn.file);
    return path.rfind("src/storage/", 0) == 0 ||
           path.rfind("src/cas/", 0) == 0 ||
           (fn.name == "DeleteFile" && DerivesFromEnv(fn.class_scope, 0));
  }

  bool DerivesFromEnv(const std::string& cls, int depth) const {
    auto it = program_.classes.find(cls);
    if (it == program_.classes.end() || depth > 16) return false;
    return std::any_of(
        it->second.bases.begin(), it->second.bases.end(),
        [&](const std::string& base) {
          return base == "Env" ||
                 DerivesFromEnv(ResolveClassName(program_, cls, base),
                                depth + 1);
        });
  }

  static bool IsDeletePrimitive(const std::vector<Token>& toks, size_t i) {
    if (!IsAnyIdent(&toks[i]) || !IsPunct(At(toks, i + 1), "(")) return false;
    if (toks[i].text == "DeleteFile") return true;
    if (toks[i].text != "Delete") return false;
    return i > 0 &&
           (IsPunct(&toks[i - 1], ".") || IsPunct(&toks[i - 1], "->"));
  }

  static void Flatten(const std::vector<Stmt>& stmts,
                      std::vector<Token>* out) {
    for (const Stmt& s : stmts) {
      out->insert(out->end(), s.tokens.begin(), s.tokens.end());
      Flatten(s.body, out);
      Flatten(s.else_body, out);
    }
  }

  Finding MakeFinding(const FunctionInfo& fn, int line,
                      const std::string& what) const {
    Finding f;
    f.analysis = "journal-path";
    f.rule = "unjournaled-delete";
    f.file = fn.file;
    f.line = line;
    f.symbol = fn.qualified;
    f.message = fn.qualified + " " + what +
                "; destructive blob operations must be dominated by a "
                "journal Begin/OnManifestDeleted/orphan-sweep intent "
                "(DESIGN.md §6.4)";
    return f;
  }

  const Program& program_;
  const Analyzer& az_;
};

// ---------------------------------------------------------------------------
// Analysis 4: layer DAG and include cycles, over one scan of the quoted
// includes.

struct Include {
  std::string target;  ///< as written, e.g. "storage/env.h"
  int line = 0;
};

std::vector<Include> ScanIncludes(const LexedFile& file) {
  std::vector<Include> out;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsPunct(&toks[i], "#") && IsIdent(&toks[i + 1], "include") &&
        toks[i + 2].kind == TokenKind::kString &&
        toks[i + 1].line == toks[i + 2].line) {
      out.push_back({toks[i + 2].text, toks[i + 2].line});
    }
  }
  return out;
}

class LayerDagAnalysis {
 public:
  void Run(const std::vector<LexedFile>& files,
           std::vector<Finding>* findings) {
    for (const LexedFile& f : files) by_normal_[Normal(f.path)] = f.path;
    // includer -> (included file, line), over scanned files only
    std::map<std::string, std::vector<std::pair<std::string, int>>> edges;
    for (const LexedFile& file : files) {
      for (const Include& inc : ScanIncludes(file)) {
        CheckLayer(file.path, inc, findings);
        std::string to = Resolve(file.path, inc.target);
        if (!to.empty()) edges[file.path].emplace_back(to, inc.line);
      }
    }
    ReportCycles(edges, findings);
  }

 private:
  static void CheckLayer(const std::string& file, const Include& inc,
                         std::vector<Finding>* findings) {
    static const std::map<std::string, std::set<std::string>> kAllowed = {
        {"common", {}},
        {"serialize", {"common"}},
        {"tensor", {"common", "serialize"}},
        {"storage", {"common", "serialize"}},
        {"nn", {"common", "serialize", "tensor"}},
        {"data", {"common", "serialize", "tensor"}},
        {"cas", {"common", "serialize", "storage"}},
        {"battery", {"common", "data"}},
        {"prov", {"common", "serialize", "data", "nn"}},
        {"core",
         {"common", "serialize", "tensor", "storage", "cas", "nn", "data",
          "prov"}},
        {"serve", {"common", "serialize", "tensor", "storage", "core"}},
        {"workload", {"common", "core", "data", "nn", "prov", "battery"}},
        {"cluster", {"common", "serialize", "storage", "core", "serve"}},
        {"fleet",
         {"common", "serialize", "storage", "cas", "core", "serve", "cluster",
          "nn", "prov", "battery"}},
    };
    std::string path = EffectivePath(file);
    if (path.rfind("src/", 0) != 0) return;  // tools/tests/bench: free
    std::string layer = path.substr(4, path.find('/', 4) - 4);
    auto allowed = kAllowed.find(layer);
    if (allowed == kAllowed.end()) return;
    size_t slash = inc.target.find('/');
    if (slash == std::string::npos) return;  // same-dir include
    std::string target = inc.target.substr(0, slash);
    if (kAllowed.count(target) == 0) return;  // not a src layer
    if (target == layer || allowed->second.count(target) != 0) return;
    Finding f;
    f.analysis = "layer-dag";
    f.rule = "layer-violation";
    f.file = file;
    f.line = inc.line;
    f.symbol = layer + "->" + target;
    f.message = "layer '" + layer + "' must not include '" + inc.target +
                "' from layer '" + target +
                "': the enforced dependency DAG (ARCHITECTURE.md) "
                "points strictly downward";
    findings->push_back(std::move(f));
  }

  static std::string Normal(const fs::path& path) {
    return path.lexically_normal().generic_string();
  }

  /// The scanned file an include names: the includer's directory first,
  /// then the src/ root of the includer's tree; "" when neither was scanned.
  std::string Resolve(const std::string& from, const std::string& inc) const {
    for (const fs::path& candidate :
         {fs::path(from).parent_path() / inc,
          fs::path(TreeRoot(from) + "src") / inc}) {
      auto it = by_normal_.find(Normal(candidate));
      if (it != by_normal_.end()) return it->second;
    }
    return "";
  }

  static void ReportCycles(
      const std::map<std::string, std::vector<std::pair<std::string, int>>>&
          edges,
      std::vector<Finding>* findings) {
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [from, outs] : edges) {
      for (const auto& [to, line] : outs) adj[from].push_back(to);
    }
    for (const std::vector<std::string>& scc : Cycles(adj)) {
      auto in_cycle = [&](const std::string& file) {
        return std::binary_search(scc.begin(), scc.end(), file);
      };
      Finding f;
      f.analysis = "layer-dag";
      f.rule = "include-cycle";
      // Anchor at the first in-cycle include, in (file, line) order.
      for (const auto& [from, outs] : edges) {
        for (const auto& [to, line] : outs) {
          if (f.file.empty() && in_cycle(from) && in_cycle(to)) {
            f.file = from;
            f.line = line;
          }
        }
      }
      std::string names;
      for (const std::string& file : scc) {
        f.symbol += (f.symbol.empty() ? "" : "<->") + EffectivePath(file);
        names += (names.empty() ? "" : ", ") + EffectivePath(file);
      }
      f.message = "include cycle between " + names +
                  ": break it with a forward declaration or by moving the "
                  "shared part into its own header";
      findings->push_back(std::move(f));
    }
  }

  std::map<std::string, std::string> by_normal_;  ///< normalized -> scanned
};

// ---------------------------------------------------------------------------
// Token rules: per-file contracts judged one token window at a time. Each
// belongs to the analysis whose invariant it guards.

/// One file under the token rules. `path` is the effective path, so fixture
/// trees that mirror src/ earn the same exemptions as the real tree.
struct TokenScan {
  const LexedFile& file;
  std::string path;
  std::vector<Finding>* findings;

  bool Under(std::string_view fragment) const {
    return path.find(fragment) != std::string::npos;
  }

  void Report(std::string analysis, std::string rule, int line,
              std::string symbol, std::string message) const {
    findings->push_back(Finding{std::move(analysis), std::move(rule),
                                file.path, line, std::move(symbol),
                                std::move(message)});
  }
};

bool IsMemberAccess(const std::vector<Token>& toks, size_t i) {
  return i > 0 && (IsPunct(&toks[i - 1], ".") || IsPunct(&toks[i - 1], "->"));
}

/// determinism/banned-random: Provenance replay depends on seeded
/// randomness and injected clocks.
void CheckBannedRandom(const TokenScan& scan) {
  static const std::set<std::string> kTypes = {
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "ranlux24",     "default_random_engine",
      "system_clock",  "steady_clock", "high_resolution_clock",
  };
  static const std::set<std::string> kCalls = {
      "rand",      "srand",         "time",   "gettimeofday",
      "localtime", "clock_gettime", "gmtime", "mktime",
  };
  if (scan.Under("common/rng.") || scan.Under("common/clock.h")) return;
  const std::vector<Token>& toks = scan.file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsAnyIdent(&toks[i]) || IsMemberAccess(toks, i)) continue;
    const std::string& t = toks[i].text;
    if (kTypes.count(t) != 0) {
      scan.Report("determinism", "banned-random", toks[i].line, t,
                  "'" + t +
                      "' is nondeterministic; use src/common/rng.h (seeded "
                      "Rng) or src/common/clock.h (WallClock/SimulatedClock)");
    } else if (kCalls.count(t) != 0 && IsPunct(At(toks, i + 1), "(")) {
      scan.Report("determinism", "banned-random", toks[i].line, t,
                  "call to '" + t +
                      "()' breaks the determinism contract; route "
                      "randomness through src/common/rng.h and time through "
                      "src/common/clock.h");
    }
  }
}

/// status-flow/discarded-status: a bare-statement call (or `(void)` cast) of
/// a storage API whose Status/Result return encodes a write failure.
void CheckDiscardedStatus(const TokenScan& scan) {
  static const std::set<std::string> kStatusCalls = {
      "Commit",     "WriteFile",  "AppendToFile",  "DeleteFile",
      "CreateDirs", "RemoveDirs", "MarkCommitted", "MarkFinished",
  };
  const std::vector<Token>& toks = scan.file.tokens;
  // Statement starts: after `;`, `{`, `}` at paren depth 0, plus index 0.
  size_t stmt = 0;
  int paren_depth = 0;
  for (size_t i = 0; i <= toks.size(); ++i) {
    bool boundary = i == toks.size();
    if (!boundary && toks[i].kind == TokenKind::kPunct) {
      if (toks[i].text == "(") ++paren_depth;
      if (toks[i].text == ")") --paren_depth;
      boundary = paren_depth == 0 &&
                 (toks[i].text == ";" || toks[i].text == "{" ||
                  toks[i].text == "}");
    }
    if (!boundary) continue;
    // Analyze [stmt, i): flag a pure call chain ending in a catalog call,
    // optionally wrapped in a (void) cast.
    size_t p = stmt;
    bool voided = IsPunct(At(toks, p), "(") &&
                  IsIdent(At(toks, p + 1), "void") &&
                  IsPunct(At(toks, p + 2), ")");
    if (voided) p += 3;
    stmt = i + 1;
    if (!IsAnyIdent(At(toks, p))) continue;
    std::string last_name = toks[p].text;
    std::string final_call;
    int call_line = toks[p].line;
    for (++p; p < i;) {
      bool named_step = (IsPunct(&toks[p], "::") || IsPunct(&toks[p], ".") ||
                         IsPunct(&toks[p], "->")) &&
                        IsAnyIdent(At(toks, p + 1));
      if (named_step) {
        last_name = toks[p + 1].text;
        p += 2;
      } else if (IsPunct(&toks[p], "(")) {
        final_call = last_name;
        call_line = toks[p].line;
        p = SkipParens(toks, p);
      } else {
        final_call.clear();
        break;
      }
    }
    if (p == i && kStatusCalls.count(final_call) != 0 &&
        IsPunct(At(toks, i), ";")) {
      scan.Report("status-flow", "discarded-status", call_line, final_call,
                  std::string(voided ? "(void)-cast" : "discarded") +
                      " Status/Result of '" + final_call +
                      "': handle the error or suppress with a justified "
                      "MMMSA(discarded-status) comment");
    }
  }
}

/// ownership/naked-new, ownership/naked-delete: outside allocator shims,
/// ownership lives in smart pointers.
void CheckNakedNewDelete(const TokenScan& scan) {
  static const std::set<std::string> kSmartPtrMakers = {
      "unique_ptr", "shared_ptr", "make_unique", "make_shared",
  };
  if (scan.Under("allocator")) return;
  const std::vector<Token>& toks = scan.file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (IsIdent(&toks[i], "new")) {
      // Back-scan to the statement start: a `new` immediately wrapped into a
      // smart pointer is the sanctioned ownership-transfer idiom.
      bool smart = false;
      for (size_t j = i; j-- > 0;) {
        if (IsPunct(&toks[j], ";") || IsPunct(&toks[j], "{") ||
            IsPunct(&toks[j], "}")) {
          break;
        }
        if (IsAnyIdent(&toks[j]) && kSmartPtrMakers.count(toks[j].text) != 0) {
          smart = true;
          break;
        }
      }
      if (!smart) {
        scan.Report("ownership", "naked-new", toks[i].line, "new",
                    "naked 'new': wrap the allocation in std::unique_ptr / "
                    "std::make_unique (allocator shim files are exempt)");
      }
    } else if (IsIdent(&toks[i], "delete") &&
               !IsPunct(At(toks, i - 1), "=") &&
               !IsIdent(At(toks, i - 1), "operator")) {
      scan.Report("ownership", "naked-delete", toks[i].line, "delete",
                  "explicit 'delete': ownership must live in a smart pointer "
                  "(allocator shim files are exempt)");
    }
  }
}

/// lock-order/raw-std-mutex: concurrent code uses the annotated wrappers so
/// clang's -Wthread-safety can check it.
void CheckRawStdMutex(const TokenScan& scan) {
  static const std::set<std::string> kRawTypes = {
      "mutex",       "shared_mutex",       "recursive_mutex",
      "timed_mutex", "condition_variable", "condition_variable_any",
      "recursive_timed_mutex",
  };
  if (scan.Under("common/thread_annotations.h")) return;  // the wrappers
  const std::vector<Token>& toks = scan.file.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsIdent(&toks[i], "std") && IsPunct(&toks[i + 1], "::") &&
        IsAnyIdent(&toks[i + 2]) && kRawTypes.count(toks[i + 2].text) != 0) {
      scan.Report("lock-order", "raw-std-mutex", toks[i].line,
                  "std::" + toks[i + 2].text,
                  "raw std::" + toks[i + 2].text +
                      ": use the annotated wrappers in "
                      "common/thread_annotations.h (Mutex, SharedMutex, "
                      "CondVar) so -Wthread-safety can check the contract");
    }
  }
}

/// store-access/direct-env-write, store-access/direct-env-read: approach
/// code (src/core/) writes through StoreBatch and reads through FileStore,
/// never through the Env directly.
void CheckDirectEnvAccess(const TokenScan& scan) {
  if (!scan.Under("src/core/")) return;
  const std::vector<Token>& toks = scan.file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsAnyIdent(&toks[i]) || !IsPunct(&toks[i + 1], "(")) continue;
    const std::string& t = toks[i].text;
    if (t == "WriteFile" || t == "AppendToFile") {
      scan.Report("store-access", "direct-env-write", toks[i].line, t,
                  "'" + t +
                      "' in approach code: save-path writes must stage "
                      "through StoreBatch so batching, journaling, and "
                      "crash-point sweeps observe them");
    } else if (t == "ReadFile" || t == "ReadFileRange") {
      scan.Report("store-access", "direct-env-read", toks[i].line, t,
                  "'" + t +
                      "' in approach code: recovery reads must go through "
                      "FileStore (Get/GetRange/OpenStream) so modeled "
                      "latency, read counters, and fault injection observe "
                      "them");
    }
  }
}

/// store-access/direct-manager-open: ModelSetManager is opened by its
/// ownership layers (core, cluster shards) plus tests and benches; everything
/// else takes an injected manager or goes through cluster/Coordinator, so
/// two facades never race on one store.
void CheckDirectManagerOpen(const TokenScan& scan) {
  if (scan.Under("src/core/") || scan.Under("src/cluster/") ||
      scan.Under("tests/") || scan.Under("bench/")) {
    return;
  }
  const std::vector<Token>& toks = scan.file.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (IsIdent(&toks[i], "ModelSetManager") && IsPunct(&toks[i + 1], "::") &&
        IsIdent(&toks[i + 2], "Open") && IsPunct(&toks[i + 3], "(")) {
      scan.Report("store-access", "direct-manager-open", toks[i].line,
                  "ModelSetManager::Open",
                  "direct ModelSetManager::Open outside core/, cluster/, "
                  "tests, and bench: take an injected manager, or go through "
                  "cluster/Coordinator so placement and lock order hold");
    }
  }
}

/// journal-path/chunk-delete: `pack-` blobs hold refcounted chunks shared
/// across sets (and `cas-` names the chunk files older stores are migrated
/// from), so only src/cas/ deletes them; everyone else decrements
/// (OnManifestDeleted) and lets the sweep reclaim.
void CheckChunkDelete(const TokenScan& scan) {
  if (scan.Under("src/cas/")) return;
  const std::vector<Token>& toks = scan.file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(&toks[i], "Delete") && !IsIdent(&toks[i], "DeleteFile")) {
      continue;
    }
    if (!IsPunct(&toks[i + 1], "(")) continue;
    size_t end = SkipParens(toks, i + 1);
    for (size_t j = i + 2; j + 1 < end; ++j) {
      bool chunk_arg = IsIdent(&toks[j], "ChunkBlobName") ||
                       IsIdent(&toks[j], "kCasChunkPrefix") ||
                       IsIdent(&toks[j], "PackBlobName") ||
                       IsIdent(&toks[j], "kCasPackPrefix") ||
                       (toks[j].kind == TokenKind::kString &&
                        (toks[j].text.rfind("cas-", 0) == 0 ||
                         toks[j].text.rfind("pack-", 0) == 0));
      if (chunk_arg) {
        scan.Report("journal-path", "chunk-delete", toks[i].line,
                    toks[i].text,
                    "'" + toks[i].text +
                        "' of a pack- or cas- chunk blob outside src/cas/: "
                        "chunks are refcounted — call "
                        "CasStore::OnManifestDeleted and let "
                        "SweepZeroRefChunks reclaim them");
        break;
      }
    }
  }
}

/// Line-number-free and checkout-independent: the effective path keeps a
/// key stable wherever the tree is scanned from.
std::string BaselineKey(const Finding& f) {
  return f.rule + "|" + EffectivePath(f.file) + "|" + f.symbol;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool Selected(const SaOptions& options, const std::string& name) {
  return options.only.empty() || options.only.count(name) != 0;
}

/// Runs every selected analysis over one source tree.
void AnalyzeTree(const std::vector<LexedFile>& files, const SaOptions& options,
                 std::vector<Finding>* findings) {
  auto runs = [&](const std::string& analysis) {
    for (const Analysis& a : Catalog()) {
      if (a.name != analysis) continue;
      if (Selected(options, a.name)) return true;
      for (const std::string& rule : a.rules) {
        if (options.only.count(rule) != 0) return true;
      }
    }
    return false;
  };
  Program program;
  if (runs("lock-order") || runs("status-flow") || runs("journal-path")) {
    program = ParseProgram(files);
  }
  Analyzer az(program);
  if (runs("lock-order")) LockOrderAnalysis(program, az).Run(findings);
  if (runs("status-flow")) StatusFlowAnalysis(program).Run(findings);
  if (runs("journal-path")) JournalPathAnalysis(program, az).Run(findings);
  if (runs("layer-dag")) LayerDagAnalysis().Run(files, findings);
  for (const LexedFile& file : files) {
    TokenScan scan{file, EffectivePath(file.path), findings};
    if (runs("lock-order")) CheckRawStdMutex(scan);
    if (runs("status-flow")) CheckDiscardedStatus(scan);
    if (runs("journal-path")) CheckChunkDelete(scan);
    if (runs("store-access")) {
      CheckDirectEnvAccess(scan);
      CheckDirectManagerOpen(scan);
    }
    if (runs("determinism")) CheckBannedRandom(scan);
    if (runs("ownership")) CheckNakedNewDelete(scan);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface.

const std::vector<Analysis>& Catalog() {
  static const std::vector<Analysis> kCatalog = {
      {"lock-order",
       {"lock-cycle", "rank-inversion", "lock-rank-missing",
        "mutex-missing-guard", "raw-std-mutex"}},
      {"status-flow", {"status-overwrite", "status-drop", "discarded-status"}},
      {"journal-path", {"unjournaled-delete", "chunk-delete"}},
      {"layer-dag", {"layer-violation", "include-cycle"}},
      {"store-access",
       {"direct-env-write", "direct-env-read", "direct-manager-open"}},
      {"determinism", {"banned-random"}},
      {"ownership", {"naked-new", "naked-delete"}},
  };
  return kCatalog;
}

std::string EffectivePath(const std::string& path) {
  static const std::vector<std::string> kMarkers = {"src/", "tools/", "tests/",
                                                    "bench/"};
  size_t best = std::string::npos;
  for (const std::string& marker : kMarkers) {
    size_t pos = path.rfind(marker);
    while (pos != std::string::npos) {
      bool boundary = pos == 0 || path[pos - 1] == '/';
      if (boundary && (best == std::string::npos || pos > best)) best = pos;
      if (pos == 0) break;
      pos = path.rfind(marker, pos - 1);
    }
  }
  return best == std::string::npos ? path : path.substr(best);
}

std::vector<Finding> AnalyzePaths(const std::vector<std::string>& paths,
                                  const SaOptions& options,
                                  std::vector<std::string>* io_errors) {
  std::vector<LexedFile> files = LexSources(paths, io_errors);
  Suppressions suppressions(files);
  std::map<std::string, std::vector<LexedFile>> trees;
  for (LexedFile& file : files) {
    std::string root = TreeRoot(file.path);
    trees[root].push_back(std::move(file));
  }
  std::vector<Finding> findings;
  for (const auto& [root, tree] : trees) {
    AnalyzeTree(tree, options, &findings);
  }
  std::erase_if(findings, [&](const Finding& f) {
    return suppressions.Covers(f) ||
           !(Selected(options, f.analysis) || Selected(options, f.rule));
  });
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
  return findings;
}

std::vector<SuppressionNote> ListSuppressions(
    const std::vector<std::string>& paths,
    std::vector<std::string>* io_errors) {
  std::vector<SuppressionNote> notes;
  for (const LexedFile& file : LexSources(paths, io_errors)) {
    std::vector<SuppressionNote> found = ScanSuppressions(file);
    notes.insert(notes.end(), found.begin(), found.end());
  }
  return notes;
}

std::string DescribeLockGraph(const std::vector<std::string>& paths) {
  Program program = ParseProgram(LexSources(paths, nullptr));
  Analyzer az(program);
  std::vector<Finding> scratch;
  LockOrderAnalysis analysis(program, az);
  analysis.Run(&scratch);
  std::ostringstream out;
  out << "# locks (rank, id, declaration)\n";
  std::vector<const LockDecl*> locks;
  for (const LockDecl& l : program.locks) locks.push_back(&l);
  std::sort(locks.begin(), locks.end(),
            [](const LockDecl* a, const LockDecl* b) {
              if (a->rank != b->rank) return a->rank < b->rank;
              return a->id < b->id;
            });
  for (const LockDecl* l : locks) {
    out << "  " << (l->rank < 0 ? std::string("   ?")
                                : std::to_string(l->rank))
        << "  " << l->id << "  (" << EffectivePath(l->file) << ":" << l->line
        << (l->shared ? ", shared" : "") << ")\n";
  }
  out << "# acquisition edges (outer -> inner, first site)\n";
  for (const auto& [key, edge] : analysis.edges()) {
    out << "  " << edge.from << " -> " << edge.to << "  (" << edge.file << ":"
        << edge.line << " in " << edge.via << ")\n";
  }
  return out.str();
}

bool ApplyBaseline(const std::string& baseline_path,
                   std::vector<Finding>* findings, std::string* error) {
  std::string contents;
  if (!ReadFile(baseline_path, &contents)) {
    if (error != nullptr) {
      *error = "cannot read baseline file '" + baseline_path + "'";
    }
    return false;
  }
  std::set<std::string> keys;
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  findings->erase(
      std::remove_if(findings->begin(), findings->end(),
                     [&](const Finding& f) {
                       return keys.count(BaselineKey(f)) != 0;
                     }),
      findings->end());
  return true;
}

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings) keys.insert(BaselineKey(f));
  std::ostringstream out;
  out << "# mmmsa ratchet baseline: rule|file|symbol per line.\n"
      << "# Findings listed here are known debt and do not fail the build;\n"
      << "# remove lines as they are fixed. Never add lines for new code.\n";
  for (const std::string& key : keys) out << key << "\n";
  return out.str();
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.analysis << "/" << f.rule
        << "] " << f.message << "\n";
  }
  if (findings.empty()) {
    out << "mmmsa: clean\n";
  } else {
    out << "mmmsa: " << findings.size() << " finding"
        << (findings.size() == 1 ? "" : "s") << "\n";
  }
  return out.str();
}


std::string FormatSarif(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"mmmsa\",\n"
      << "          \"informationUri\": \"DESIGN.md\",\n"
      << "          \"rules\": [";
  bool first = true;
  for (const std::string& rule : rules) {
    out << (first ? "" : ",") << "\n            {\"id\": \""
        << JsonEscape(rule) << "\"}";
    first = false;
  }
  out << (rules.empty() ? "" : "\n          ") << "]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    out << (first ? "" : ",") << "\n        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(f.message)
        << "\"},\n"
        << "          \"partialFingerprints\": {\"mmmsaSymbol\": \""
        << JsonEscape(f.symbol) << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(f.file) << "\"},\n"
        << "                \"region\": {\"startLine\": " << f.line << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }";
    first = false;
  }
  out << (findings.empty() ? "" : "\n      ") << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace mmmsa
