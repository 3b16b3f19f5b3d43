// Fixture: a const_cast write must be flagged.
#include <span>

void Scale(std::span<const float> values) {
  float* raw = const_cast<float*>(values.data());
  raw[0] *= 2.0f;
}
