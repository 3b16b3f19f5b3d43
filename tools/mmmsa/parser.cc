#include "parser.h"

#include <algorithm>
#include <cstdlib>

namespace mmmsa {
namespace {

/// Past a balanced `< ... >` group ("<" at `open`), counting ">>" as two
/// closers. Gives up (returns open+1) if the group does not close within the
/// same statement-ish window — `<` was a comparison, not a template.
size_t SkipAngles(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "<") ++depth;
    if (toks[i].text == ">" && --depth == 0) return i + 1;
    if (toks[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
    if (toks[i].text == ";" || toks[i].text == "{") break;
  }
  return open + 1;
}

bool IsTypeNoiseIdent(const std::string& s) {
  static const std::set<std::string> kNoise = {
      "const",    "mutable",  "static",   "constexpr", "inline", "volatile",
      "unsigned", "signed",   "long",     "short",     "int",    "char",
      "bool",     "float",    "double",   "void",      "auto",   "std",
      "size_t",   "uint64_t", "int64_t",  "uint32_t",  "int32_t", "uint8_t",
      "int8_t",   "uint16_t", "int16_t",  "typename",  "struct", "class",
      "explicit", "virtual",  "friend",   "extern",    "using",  "operator",
  };
  return kNoise.count(s) != 0;
}

// ---------------------------------------------------------------------------
// Statement parsing.

std::vector<Stmt> ParseStmts(const std::vector<Token>& toks, size_t begin,
                             size_t end);

/// Consumes one plain statement [i, ...) up to `;` at paren depth 0,
/// swallowing balanced brace groups (lambda bodies, init lists) along the
/// way. Stops before an unbalanced `}`.
size_t ConsumePlain(const std::vector<Token>& toks, size_t i, size_t end,
                    std::vector<Token>* out) {
  int paren = 0;
  while (i < end) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "(") ++paren;
      if (t.text == ")") --paren;
      if (t.text == "{") {
        size_t close = SkipBraces(toks, i);
        out->insert(out->end(), toks.begin() + i, toks.begin() + close);
        i = close;
        continue;
      }
      if (t.text == "}" && paren <= 0) return i;  // unbalanced: block end
      if (t.text == ";" && paren <= 0) {
        out->push_back(t);
        return i + 1;
      }
    }
    out->push_back(t);
    ++i;
  }
  return i;
}

size_t ParseOneStmt(const std::vector<Token>& toks, size_t i, size_t end,
                    std::vector<Stmt>* out);

/// Parses either a `{ ... }` block or a single statement into `*body`.
size_t ParseBody(const std::vector<Token>& toks, size_t i, size_t end,
                 std::vector<Stmt>* body) {
  if (i < end && IsPunct(&toks[i], "{")) {
    size_t close = SkipBraces(toks, i);
    *body = ParseStmts(toks, i + 1, close > i ? close - 1 : i + 1);
    return close;
  }
  return ParseOneStmt(toks, i, end, body);
}

size_t ParseOneStmt(const std::vector<Token>& toks, size_t i, size_t end,
                    std::vector<Stmt>* out) {
  while (i < end && IsPunct(&toks[i], ";")) ++i;  // stray semicolons
  if (i >= end) return i;
  const Token& t = toks[i];

  // Labels: `case <expr>:`, `default:`, `name:` — skip and parse what
  // follows as the statement proper.
  if (IsIdent(&t, "case")) {
    size_t j = i + 1;
    while (j < end && !IsPunct(&toks[j], ":")) ++j;
    return ParseOneStmt(toks, j + 1, end, out);
  }
  if (IsIdent(&t, "default") && IsPunct(At(toks, i + 1), ":")) {
    return ParseOneStmt(toks, i + 2, end, out);
  }

  if (IsIdent(&t, "if")) {
    Stmt s;
    s.kind = Stmt::Kind::kIf;
    s.line = t.line;
    size_t j = i + 1;
    if (IsIdent(At(toks, j), "constexpr")) ++j;
    if (IsPunct(At(toks, j), "(")) {
      size_t close = SkipParens(toks, j);
      s.tokens.assign(toks.begin() + j + 1, toks.begin() + (close - 1));
      j = close;
    }
    j = ParseBody(toks, j, end, &s.body);
    if (IsIdent(At(toks, j), "else")) {
      s.has_else = true;
      j = ParseBody(toks, j + 1, end, &s.else_body);
    }
    out->push_back(std::move(s));
    return j;
  }

  if (IsIdent(&t, "while") || IsIdent(&t, "for")) {
    Stmt s;
    s.kind = Stmt::Kind::kLoop;
    s.line = t.line;
    size_t j = i + 1;
    if (IsPunct(At(toks, j), "(")) {
      size_t close = SkipParens(toks, j);
      s.tokens.assign(toks.begin() + j + 1, toks.begin() + (close - 1));
      j = close;
    }
    j = ParseBody(toks, j, end, &s.body);
    out->push_back(std::move(s));
    return j;
  }

  if (IsIdent(&t, "do")) {
    Stmt s;
    s.kind = Stmt::Kind::kLoop;
    s.line = t.line;
    size_t j = ParseBody(toks, i + 1, end, &s.body);
    if (IsIdent(At(toks, j), "while") && IsPunct(At(toks, j + 1), "(")) {
      size_t close = SkipParens(toks, j + 1);
      s.tokens.assign(toks.begin() + j + 2, toks.begin() + (close - 1));
      j = close;
      if (IsPunct(At(toks, j), ";")) ++j;
    }
    out->push_back(std::move(s));
    return j;
  }

  if (IsIdent(&t, "switch")) {
    Stmt s;
    s.kind = Stmt::Kind::kSwitch;
    s.line = t.line;
    size_t j = i + 1;
    if (IsPunct(At(toks, j), "(")) {
      size_t close = SkipParens(toks, j);
      s.tokens.assign(toks.begin() + j + 1, toks.begin() + (close - 1));
      j = close;
    }
    j = ParseBody(toks, j, end, &s.body);
    out->push_back(std::move(s));
    return j;
  }

  if (IsIdent(&t, "return")) {
    Stmt s;
    s.kind = Stmt::Kind::kReturn;
    s.line = t.line;
    size_t j = ConsumePlain(toks, i, end, &s.tokens);
    out->push_back(std::move(s));
    return j;
  }

  if (IsIdent(&t, "break") || IsIdent(&t, "continue")) {
    Stmt s;
    s.kind = IsIdent(&t, "break") ? Stmt::Kind::kBreak : Stmt::Kind::kContinue;
    s.line = t.line;
    s.tokens.push_back(t);
    size_t j = i + 1;
    if (IsPunct(At(toks, j), ";")) ++j;
    out->push_back(std::move(s));
    return j;
  }

  if (IsPunct(&t, "{")) {
    Stmt s;
    s.kind = Stmt::Kind::kBlock;
    s.line = t.line;
    size_t close = SkipBraces(toks, i);
    s.body = ParseStmts(toks, i + 1, close > i ? close - 1 : i + 1);
    out->push_back(std::move(s));
    return close;
  }

  if (IsPunct(&t, "}")) return i;  // caller's block end; do not consume

  Stmt s;
  s.kind = Stmt::Kind::kPlain;
  s.line = t.line;
  size_t j = ConsumePlain(toks, i, end, &s.tokens);
  if (j == i) return i + 1;  // defensive progress on unparseable input
  out->push_back(std::move(s));
  return j;
}

std::vector<Stmt> ParseStmts(const std::vector<Token>& toks, size_t begin,
                             size_t end) {
  std::vector<Stmt> out;
  size_t i = begin;
  while (i < end) {
    size_t next = ParseOneStmt(toks, i, end, &out);
    if (next <= i) break;  // no progress: bail rather than loop
    i = next;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Declaration scanning.

struct RawMember {
  std::vector<Token> tokens;  ///< the whole member declaration
};

struct RawClass {
  std::string scoped_name;
  std::string file;
  std::vector<std::string> bases;
  std::vector<RawMember> members;  ///< non-function member declarations
};

struct RawFunction {
  FunctionInfo info;                 ///< body parsed, types unresolved
  std::vector<Token> header;        ///< return type + qualifiers
  std::vector<Token> params;        ///< parameter-list tokens
  std::vector<Token> body_tokens;   ///< flat body tokens (for local decls)
};

struct FileScan {
  std::vector<RawClass> classes;
  std::vector<RawFunction> functions;
};

/// Extracts `MMM_REQUIRES(...)` / `MMM_REQUIRES_SHARED(...)` argument
/// spellings from a declaration token slice. Each comma-separated argument
/// becomes one spelling with its tokens joined ("service_->meta_mu_").
std::vector<std::string> ExtractRequires(const std::vector<Token>& toks) {
  std::vector<std::string> out;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if (toks[i].text != "MMM_REQUIRES" && toks[i].text != "MMM_REQUIRES_SHARED")
      continue;
    if (!IsPunct(&toks[i + 1], "(")) continue;
    size_t close = SkipParens(toks, i + 1);
    std::string cur;
    for (size_t j = i + 2; j + 1 < close; ++j) {
      if (IsPunct(&toks[j], ",")) {
        if (!cur.empty()) out.push_back(cur);
        cur.clear();
      } else {
        cur += toks[j].text;
      }
    }
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

int ExtractLockRank(const std::vector<Token>& toks) {
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsIdent(&toks[i], "MMM_LOCK_RANK") && IsPunct(&toks[i + 1], "(") &&
        toks[i + 2].kind == TokenKind::kNumber) {
      return std::atoi(toks[i + 2].text.c_str());
    }
  }
  return -1;
}

/// Scans one file's token stream for classes and function definitions.
/// `scope` is the enclosing class chain ("A::B"); namespaces are ignored.
class DeclScanner {
 public:
  DeclScanner(const LexedFile& file, FileScan* out)
      : file_(file), toks_(file.tokens), out_(out) {}

  void Run() { ScanScope(0, toks_.size(), ""); }

 private:
  /// Scans declarations in [i, end) at class/namespace scope `scope`.
  void ScanScope(size_t i, size_t end, const std::string& scope) {
    while (i < end) {
      const Token& t = toks_[i];
      if (IsPunct(&t, ";") || IsPunct(&t, "}")) {
        ++i;
        continue;
      }
      if (IsPunct(&t, "#")) {  // preprocessor directive: rest of the line
        size_t j = i + 1;
        while (j < end && toks_[j].line == t.line) ++j;
        i = j;
        continue;
      }
      if (IsIdent(&t, "template")) {
        ++i;
        if (i < end && IsPunct(&toks_[i], "<")) i = SkipAngles(toks_, i);
        continue;  // the templated entity parses as a normal declaration
      }
      if (IsIdent(&t, "namespace")) {
        size_t j = i + 1;
        while (j < end && !IsPunct(&toks_[j], "{") && !IsPunct(&toks_[j], ";"))
          ++j;
        if (j < end && IsPunct(&toks_[j], "{")) {
          size_t close = SkipBraces(toks_, j);
          ScanScope(j + 1, close > j ? close - 1 : j + 1, scope);
          i = close;
        } else {
          i = j + 1;  // namespace alias / using-directive tail
        }
        continue;
      }
      if (IsIdent(&t, "using") || IsIdent(&t, "typedef") ||
          IsIdent(&t, "friend") || IsIdent(&t, "static_assert")) {
        while (i < end && !IsPunct(&toks_[i], ";")) {
          if (IsPunct(&toks_[i], "{")) {
            i = SkipBraces(toks_, i);
            continue;
          }
          ++i;
        }
        ++i;
        continue;
      }
      if ((IsIdent(&t, "public") || IsIdent(&t, "private") ||
           IsIdent(&t, "protected")) &&
          IsPunct(At(toks_, i + 1), ":")) {
        i += 2;
        continue;
      }
      if (IsIdent(&t, "enum")) {
        size_t j = i + 1;
        while (j < end && !IsPunct(&toks_[j], "{") && !IsPunct(&toks_[j], ";"))
          ++j;
        if (j < end && IsPunct(&toks_[j], "{")) j = SkipBraces(toks_, j);
        while (j < end && !IsPunct(&toks_[j], ";")) ++j;
        i = j + 1;
        continue;
      }
      if (IsIdent(&t, "class") || IsIdent(&t, "struct") ||
          IsIdent(&t, "union")) {
        i = ScanClass(i, end, scope);
        continue;
      }
      i = ScanDeclaration(i, end, scope);
    }
  }

  /// Parses a class-head starting at the class/struct keyword; recurses into
  /// the body. Returns the index past the declaration.
  size_t ScanClass(size_t i, size_t end, const std::string& scope) {
    size_t j = i + 1;
    std::string name;
    while (j < end) {
      const Token& t = toks_[j];
      if (IsPunct(&t, "(")) {  // attribute macro like MMM_CAPABILITY("m")
        j = SkipParens(toks_, j);
        continue;
      }
      if (IsPunct(&t, ";")) return j + 1;  // forward declaration
      if (IsPunct(&t, ":") || IsPunct(&t, "{")) break;
      if (t.kind == TokenKind::kIdent && t.text != "final" &&
          t.text != "alignas") {
        name = t.text;
      }
      ++j;
    }
    // Base clause up to the body opener: keep the last identifier of each
    // specifier, outside template arguments.
    std::vector<std::string> bases;
    while (j < end && !IsPunct(&toks_[j], "{")) {
      if (IsPunct(&toks_[j], "(")) {
        j = SkipParens(toks_, j);
        continue;
      }
      if (IsPunct(&toks_[j], "<")) {
        j = SkipAngles(toks_, j);
        continue;
      }
      if (IsPunct(&toks_[j], ";")) return j + 1;
      if (IsPunct(&toks_[j], ":") || IsPunct(&toks_[j], ",")) {
        bases.emplace_back();
      } else if (IsAnyIdent(&toks_[j]) && !bases.empty()) {
        bases.back() = toks_[j].text;
      }
      ++j;
    }
    if (j >= end) return end;
    size_t close = SkipBraces(toks_, j);
    if (name.empty()) name = "anon";
    std::string scoped = scope.empty() ? name : scope + "::" + name;
    out_->classes.push_back(RawClass{scoped, file_.path, std::move(bases), {}});
    ScanScope(j + 1, close > j ? close - 1 : j + 1, scoped);
    // Past the body there may be `name;` declarators — consume to `;`.
    size_t k = close;
    while (k < end && !IsPunct(&toks_[k], ";") && !IsPunct(&toks_[k], "}")) ++k;
    return k < end && IsPunct(&toks_[k], ";") ? k + 1 : k;
  }

  RawClass* FindRawClass(const std::string& scoped) {
    for (RawClass& c : out_->classes) {
      if (c.scoped_name == scoped) return &c;
    }
    return nullptr;
  }

  /// Parses one generic declaration (field, method decl, or function def).
  size_t ScanDeclaration(size_t i, size_t end, const std::string& scope) {
    std::vector<Token> decl;
    bool saw_params = false;
    size_t params_begin = 0, params_end = 0;
    size_t j = i;
    while (j < end) {
      const Token& t = toks_[j];
      if (IsPunct(&t, ";")) {
        RecordPlainDecl(decl, scope);
        return j + 1;
      }
      if (IsPunct(&t, "}")) {
        // Unterminated declaration at block end (macro row, etc.): drop it.
        return j;
      }
      if (IsPunct(&t, "(")) {
        size_t close = SkipParens(toks_, j);
        // The last ident-preceded group before the body is the param list.
        if (j > i && (IsAnyIdent(&toks_[j - 1]) ||
                      (j >= 2 && IsPunct(&toks_[j - 1], "~")))) {
          saw_params = true;
          params_begin = j + 1;
          params_end = close > j ? close - 1 : j + 1;
        }
        decl.insert(decl.end(), toks_.begin() + j, toks_.begin() + close);
        j = close;
        continue;
      }
      if (IsPunct(&t, "=")) {
        // `= default;` / `= delete;` / `= 0;` / initializers: scan to `;`.
        while (j < end && !IsPunct(&toks_[j], ";")) {
          if (IsPunct(&toks_[j], "{")) {
            j = SkipBraces(toks_, j);
            continue;
          }
          if (IsPunct(&toks_[j], "(")) {
            j = SkipParens(toks_, j);
            continue;
          }
          decl.push_back(toks_[j]);
          ++j;
        }
        RecordPlainDecl(decl, scope);
        return j < end ? j + 1 : end;
      }
      if (IsPunct(&t, ":") && saw_params) {
        // Constructor init list: `name(...)` / `name{...}` groups, then the
        // body brace (recognizable as a `{` right after `)` or `}`).
        ++j;
        while (j < end) {
          if (IsPunct(&toks_[j], "(")) {
            j = SkipParens(toks_, j);
            continue;
          }
          if (IsPunct(&toks_[j], "{")) {
            bool body = j > 0 && (IsPunct(&toks_[j - 1], ")") ||
                                  IsPunct(&toks_[j - 1], "}"));
            if (body) break;
            j = SkipBraces(toks_, j);
            continue;
          }
          if (IsPunct(&toks_[j], ";")) return j + 1;  // defensive
          ++j;
        }
        if (j >= end) return end;
        return RecordFunction(decl, scope, params_begin, params_end, j);
      }
      if (IsPunct(&t, "{")) {
        if (saw_params) {
          return RecordFunction(decl, scope, params_begin, params_end, j);
        }
        // Brace initializer in a variable declaration.
        j = SkipBraces(toks_, j);
        continue;
      }
      decl.push_back(t);
      ++j;
    }
    return end;
  }

  /// Declaration that ended at `;`: a field or a method declaration, told
  /// apart in pass 2.
  void RecordPlainDecl(const std::vector<Token>& decl,
                       const std::string& scope) {
    if (scope.empty()) return;  // namespace-scope variables: not needed
    RawClass* cls = FindRawClass(scope);
    if (cls != nullptr) cls->members.push_back(RawMember{decl});
  }

  /// Function definition whose body opens at toks_[body_open] == `{`.
  /// Returns the index past the body.
  size_t RecordFunction(const std::vector<Token>& decl,
                        const std::string& scope, size_t params_begin,
                        size_t params_end, size_t body_open) {
    size_t close = SkipBraces(toks_, body_open);
    // Function name: the ident before the parameter group. In `decl` the
    // param group was appended, so find the last `( ... )` group's opener.
    std::string name, qualified_prefix;
    bool dtor = false;
    {
      // Walk the decl tokens to locate the name just before the param list
      // that matches [params_begin, params_end) by line/position heuristic:
      // the params group is the last paren group in decl.
      int depth = 0;
      size_t open_idx = decl.size();
      for (size_t k = 0; k < decl.size(); ++k) {
        if (IsPunct(&decl[k], "(")) {
          if (depth == 0) open_idx = k;
          ++depth;
        } else if (IsPunct(&decl[k], ")")) {
          --depth;
        }
      }
      if (open_idx == decl.size() || open_idx == 0) return close;
      size_t n = open_idx - 1;
      if (!IsAnyIdent(&decl[n])) return close;  // operator or cast: skip
      name = decl[n].text;
      if (n >= 1 && IsPunct(&decl[n - 1], "~")) {
        dtor = true;
        if (n >= 2) n -= 1;  // step onto the `~` for the :: walk below
      }
      if (IsIdent(At(decl, n >= 1 ? n - 1 : 0), "operator")) return close;
      // Qualified prefix: `A :: B :: [~] name`.
      size_t q = n;
      std::vector<std::string> prefix;
      while (q >= 2 && IsPunct(&decl[q - 1], "::") && IsAnyIdent(&decl[q - 2])) {
        prefix.push_back(decl[q - 2].text);
        q -= 2;
      }
      std::reverse(prefix.begin(), prefix.end());
      for (const std::string& p : prefix) {
        qualified_prefix += qualified_prefix.empty() ? p : "::" + p;
      }
    }
    if (name == "if" || name == "while" || name == "for" || name == "switch" ||
        name == "return") {
      return close;  // defensive: never treat control flow as a definition
    }

    RawFunction fn;
    fn.info.name = (dtor ? "~" : "") + name;
    fn.info.class_scope = !scope.empty() ? scope : qualified_prefix;
    fn.info.qualified = fn.info.class_scope.empty()
                            ? fn.info.name
                            : fn.info.class_scope + "::" + fn.info.name;
    fn.info.file = file_.path;
    fn.info.line = toks_[body_open].line;
    size_t body_begin = body_open + 1;
    size_t body_end = close > body_open ? close - 1 : body_open + 1;
    fn.info.body = ParseStmts(toks_, body_begin, body_end);
    fn.body_tokens.assign(toks_.begin() + body_begin, toks_.begin() + body_end);
    fn.header = decl;
    fn.params.assign(toks_.begin() + std::min(params_begin, toks_.size()),
                     toks_.begin() + std::min(params_end, toks_.size()));
    out_->functions.push_back(std::move(fn));
    return close;
  }

  const LexedFile& file_;
  const std::vector<Token>& toks_;
  FileScan* out_;
};

// ---------------------------------------------------------------------------
// Pass 2: linking.

/// True when the member declaration declares a lock; fills name/shared/rank.
bool ClassifyLockMember(const std::vector<Token>& decl, std::string* name,
                        bool* shared, int* rank, int* line) {
  for (size_t i = 0; i + 1 < decl.size(); ++i) {
    if (decl[i].kind != TokenKind::kIdent) continue;
    if (decl[i].text != "Mutex" && decl[i].text != "SharedMutex") continue;
    if (i > 0 && IsPunct(&decl[i - 1], "<")) continue;  // template arg
    if (!IsAnyIdent(&decl[i + 1])) continue;
    *name = decl[i + 1].text;
    *shared = decl[i].text == "SharedMutex";
    *rank = ExtractLockRank(decl);
    *line = decl[i].line;
    return true;
  }
  return false;
}

/// Member (non-method) declaration: name and candidate type idents.
bool ClassifyFieldMember(const std::vector<Token>& decl, std::string* name,
                         std::vector<std::string>* type_idents) {
  // Method declarations (param group present) are classified elsewhere.
  // Name: last ident before the first of `=`, MMM_GUARDED_BY,
  // MMM_PT_GUARDED_BY, MMM_LOCK_RANK, or end-of-declaration.
  size_t stop = decl.size();
  for (size_t i = 0; i < decl.size(); ++i) {
    if (decl[i].kind == TokenKind::kIdent &&
        (decl[i].text == "MMM_GUARDED_BY" ||
         decl[i].text == "MMM_PT_GUARDED_BY" ||
         decl[i].text == "MMM_LOCK_RANK")) {
      stop = i;
      break;
    }
    if (IsPunct(&decl[i], "=")) {
      stop = i;
      break;
    }
  }
  std::string last;
  for (size_t i = 0; i < stop; ++i) {
    if (decl[i].kind == TokenKind::kIdent && !IsTypeNoiseIdent(decl[i].text)) {
      if (!last.empty()) type_idents->push_back(last);
      last = decl[i].text;
    }
  }
  if (last.empty()) return false;
  *name = last;
  return true;
}

/// True when the declaration contains a top-level parameter group (method).
bool LooksLikeMethodDecl(const std::vector<Token>& decl, std::string* name,
                         std::vector<std::string>* pre_name_idents) {
  int depth = 0;
  for (size_t i = 0; i < decl.size(); ++i) {
    if (IsPunct(&decl[i], "(")) {
      if (depth == 0 && i > 0 && IsAnyIdent(&decl[i - 1])) {
        *name = decl[i - 1].text;
        for (size_t k = 0; k + 1 < i; ++k) {
          if (decl[k].kind == TokenKind::kIdent &&
              !IsTypeNoiseIdent(decl[k].text)) {
            pre_name_idents->push_back(decl[k].text);
          }
        }
        return true;
      }
      ++depth;
    } else if (IsPunct(&decl[i], ")")) {
      --depth;
    }
  }
  return false;
}

}  // namespace

std::string ResolveClassName(const Program& program,
                             const std::string& enclosing_class,
                             const std::string& name) {
  // Nested lookup: walk the enclosing chain outward.
  std::string scope = enclosing_class;
  while (!scope.empty()) {
    std::string candidate = scope + "::" + name;
    if (program.classes.count(candidate) != 0) return candidate;
    size_t pos = scope.rfind("::");
    scope = pos == std::string::npos ? "" : scope.substr(0, pos);
  }
  if (program.classes.count(name) != 0) return name;
  auto it = program.top_level_classes.find(name);
  if (it != program.top_level_classes.end() && it->second.size() == 1) {
    return it->second[0];
  }
  return "";
}

Program ParseProgram(const std::vector<LexedFile>& files) {
  Program program;
  std::vector<FileScan> scans(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    DeclScanner(files[i], &scans[i]).Run();
  }

  // Register classes first so type resolution sees the global set.
  for (const FileScan& scan : scans) {
    for (const RawClass& rc : scan.classes) {
      ClassInfo& info = program.classes[rc.scoped_name];
      info.name = rc.scoped_name;
      std::string top = rc.scoped_name.substr(0, rc.scoped_name.find("::"));
      if (rc.scoped_name.find("::") == std::string::npos) {
        auto& v = program.top_level_classes[top];
        if (std::find(v.begin(), v.end(), rc.scoped_name) == v.end()) {
          v.push_back(rc.scoped_name);
        }
      }
    }
  }

  // Members: locks, field types, method declarations.
  for (const FileScan& scan : scans) {
    for (const RawClass& rc : scan.classes) {
      ClassInfo& info = program.classes[rc.scoped_name];
      if (info.bases.empty()) info.bases = rc.bases;
      bool guarded = std::any_of(
          rc.members.begin(), rc.members.end(), [](const RawMember& m) {
            return std::any_of(m.tokens.begin(), m.tokens.end(),
                               [](const Token& t) {
                                 return IsIdent(&t, "MMM_GUARDED_BY") ||
                                        IsIdent(&t, "MMM_PT_GUARDED_BY");
                               });
          });
      for (const RawMember& m : rc.members) {
        std::string lock_name;
        bool shared = false;
        int rank = -1, line = 0;
        std::string method_name;
        std::vector<std::string> pre_idents;
        if (ClassifyLockMember(m.tokens, &lock_name, &shared, &rank, &line)) {
          LockDecl lock;
          lock.id = rc.scoped_name + "::" + lock_name;
          lock.file = rc.file;
          lock.line = line;
          lock.rank = rank;
          lock.shared = shared;
          lock.unguarded = !guarded;
          if (program.lock_index.count(lock.id) == 0) {
            program.lock_index[lock.id] = program.locks.size();
            program.locks_by_member[lock_name].push_back(lock.id);
            program.locks.push_back(std::move(lock));
          }
          continue;
        }
        if (LooksLikeMethodDecl(m.tokens, &method_name, &pre_idents)) {
          info.methods.insert(method_name);
          std::vector<std::string> reqs = ExtractRequires(m.tokens);
          if (!reqs.empty()) {
            auto& dst = info.method_requires[method_name];
            dst.insert(dst.end(), reqs.begin(), reqs.end());
          }
          // Return class: unique known class among the pre-name idents.
          std::string ret;
          for (const std::string& ident : pre_idents) {
            std::string resolved =
                ResolveClassName(program, rc.scoped_name, ident);
            if (resolved.empty()) continue;
            if (!ret.empty() && ret != resolved) {
              ret.clear();
              break;
            }
            ret = resolved;
          }
          if (!ret.empty()) info.method_return_class[method_name] = ret;
          continue;
        }
        std::string field_name;
        std::vector<std::string> type_idents;
        if (ClassifyFieldMember(m.tokens, &field_name, &type_idents)) {
          std::string type;
          for (const std::string& ident : type_idents) {
            std::string resolved =
                ResolveClassName(program, rc.scoped_name, ident);
            if (resolved.empty()) continue;
            if (!type.empty() && type != resolved) {
              type.clear();
              break;
            }
            type = resolved;
          }
          if (!type.empty()) info.member_types[field_name] = type;
        }
      }
    }
  }

  // Functions: var types from params and local declarations, requires
  // contracts, return classes, function-local static locks.
  for (const FileScan& scan : scans) {
    for (const RawFunction& raw : scan.functions) {
      FunctionInfo fn = raw.info;

      auto bind_vars = [&](const std::vector<Token>& toks) {
        // `Class [&*]* name [,)=;({]` — first known class then next ident.
        for (size_t i = 0; i < toks.size(); ++i) {
          if (toks[i].kind != TokenKind::kIdent ||
              IsTypeNoiseIdent(toks[i].text)) {
            continue;
          }
          if (i > 0 && (IsPunct(&toks[i - 1], ".") ||
                        IsPunct(&toks[i - 1], "->") ||
                        IsPunct(&toks[i - 1], "::"))) {
            continue;  // member access / qualified use, not a type
          }
          std::string cls =
              ResolveClassName(program, fn.class_scope, toks[i].text);
          if (cls.empty()) continue;
          // Scan forward over `* & const` to the declared name.
          size_t j = i + 1;
          while (j < toks.size() &&
                 (IsPunct(&toks[j], "*") || IsPunct(&toks[j], "&") ||
                  IsPunct(&toks[j], "&&") || IsIdent(&toks[j], "const"))) {
            ++j;
          }
          if (j < toks.size() && IsAnyIdent(&toks[j])) {
            const Token* after = At(toks, j + 1);
            if (after == nullptr || IsPunct(after, ",") ||
                IsPunct(after, ")") || IsPunct(after, ";") ||
                IsPunct(after, "=") || IsPunct(after, "(") ||
                IsPunct(after, "{")) {
              fn.var_types.emplace(toks[j].text, cls);
            }
          }
        }
      };
      bind_vars(raw.params);
      bind_vars(raw.body_tokens);

      // Requires contracts: from the out-of-line header and the in-class
      // declaration.
      std::vector<std::string> raw_requires = ExtractRequires(raw.header);
      auto cls_it = program.classes.find(fn.class_scope);
      if (cls_it != program.classes.end()) {
        auto req_it = cls_it->second.method_requires.find(fn.name);
        if (req_it != cls_it->second.method_requires.end()) {
          raw_requires.insert(raw_requires.end(), req_it->second.begin(),
                              req_it->second.end());
        }
      }
      fn.requires_locks = std::move(raw_requires);  // resolved by analyses

      // Return class (for accessor chains): unique known class in the
      // header before the name.
      {
        std::string ret;
        int depth = 0;
        for (size_t k = 0; k < raw.header.size(); ++k) {
          if (IsPunct(&raw.header[k], "(")) ++depth;
          if (IsPunct(&raw.header[k], ")")) --depth;
          if (depth > 0 || raw.header[k].kind != TokenKind::kIdent) continue;
          if (IsTypeNoiseIdent(raw.header[k].text)) continue;
          if (raw.header[k].text == fn.name) break;
          std::string resolved =
              ResolveClassName(program, fn.class_scope, raw.header[k].text);
          if (resolved.empty()) continue;
          if (!ret.empty() && ret != resolved) {
            ret.clear();
            break;
          }
          ret = resolved;
        }
        fn.return_class = ret;
        if (cls_it != program.classes.end()) {
          cls_it->second.methods.insert(fn.name);
          if (!ret.empty() &&
              cls_it->second.method_return_class.count(fn.name) == 0) {
            cls_it->second.method_return_class[fn.name] = ret;
          }
        }
      }

      // Function-local static locks + the returned-lock idiom.
      {
        const std::vector<Token>& body = raw.body_tokens;
        std::string local_lock_name;
        for (size_t k = 0; k + 2 < body.size(); ++k) {
          if (IsIdent(&body[k], "static") &&
              (IsIdent(&body[k + 1], "Mutex") ||
               IsIdent(&body[k + 1], "SharedMutex")) &&
              IsAnyIdent(&body[k + 2])) {
            LockDecl lock;
            local_lock_name = body[k + 2].text;
            lock.id = fn.qualified + "::" + local_lock_name;
            lock.file = fn.file;
            lock.line = body[k + 2].line;
            lock.shared = IsIdent(&body[k + 1], "SharedMutex");
            // Rank annotation sits on the same declaration statement.
            std::vector<Token> decl_slice;
            for (size_t m = k; m < body.size() && !IsPunct(&body[m], ";"); ++m)
              decl_slice.push_back(body[m]);
            lock.rank = ExtractLockRank(decl_slice);
            if (program.lock_index.count(lock.id) == 0) {
              program.lock_index[lock.id] = program.locks.size();
              program.locks_by_member[local_lock_name].push_back(lock.id);
              program.locks.push_back(std::move(lock));
            }
          }
        }
        if (!local_lock_name.empty()) {
          // `return <name>;` anywhere in the body completes the idiom.
          for (size_t k = 0; k + 2 < body.size(); ++k) {
            if (IsIdent(&body[k], "return") &&
                IsIdent(&body[k + 1], local_lock_name) &&
                IsPunct(&body[k + 2], ";")) {
              program.returned_locks[fn.qualified] =
                  fn.qualified + "::" + local_lock_name;
              break;
            }
          }
        }
      }

      size_t idx = program.functions.size();
      program.by_qualified[fn.qualified].push_back(idx);
      if (fn.class_scope.empty()) {
        program.free_by_name[fn.name].push_back(idx);
      }
      program.functions.push_back(std::move(fn));
    }
  }

  return program;
}

}  // namespace mmmsa
