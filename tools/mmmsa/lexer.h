#ifndef MMM_TOOLS_MMMSA_LEXER_H_
#define MMM_TOOLS_MMMSA_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

namespace mmmsa {

enum class TokenKind {
  kIdent,    ///< identifiers and keywords (the rules treat keywords by name)
  kNumber,   ///< numeric literal
  kString,   ///< string literal (text excludes quotes; raw strings supported)
  kChar,     ///< character literal
  kPunct,    ///< one punctuator, longest-match ("->", "::", "<<", ...)
};

struct Token {
  TokenKind kind;
  std::string text;
  int line = 0;
};

/// A comment kept out-of-band for suppression matching.
struct Comment {
  int line = 0;       ///< line the comment starts on
  std::string text;   ///< body without the // or /* */ markers
};

/// Token stream of one file, comments separated out.
struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

/// Lexes C++ source: skips whitespace, separates comments, folds line
/// continuations, and keeps preprocessor tokens inline (so `#include "x"`
/// appears as the tokens `#`, `include`, and a string). Never fails: bytes
/// that fit nothing become single-char punctuators.
LexedFile Lex(std::string path, std::string_view source);

// ---------------------------------------------------------------------------
// Token-stream helpers shared by the parser and the analyses.

inline const Token* At(const std::vector<Token>& toks, size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

inline bool IsIdent(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kIdent && t->text == text;
}

inline bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

inline bool IsAnyIdent(const Token* t) {
  return t != nullptr && t->kind == TokenKind::kIdent;
}

/// Index just past the balanced `open`...`close` group starting at `begin`
/// (which must be the opener); tolerates EOF by returning toks.size().
size_t SkipGroup(const std::vector<Token>& toks, size_t begin,
                 std::string_view open, std::string_view close);

inline size_t SkipParens(const std::vector<Token>& toks, size_t open) {
  return SkipGroup(toks, open, "(", ")");
}

inline size_t SkipBraces(const std::vector<Token>& toks, size_t open) {
  return SkipGroup(toks, open, "{", "}");
}

}  // namespace mmmsa

#endif  // MMM_TOOLS_MMMSA_LEXER_H_
