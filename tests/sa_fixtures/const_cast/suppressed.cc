// Fixture: a suppressed const_cast lints clean.
#include <cstring>

size_t Length(const char* text) {
  // MMMSA(const-cast): fixture adapts a C API that takes a mutable pointer
  char* mutable_text = const_cast<char*>(text);
  return std::strlen(mutable_text);
}
