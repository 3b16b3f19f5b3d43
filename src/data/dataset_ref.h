#ifndef MMM_DATA_DATASET_REF_H_
#define MMM_DATA_DATASET_REF_H_

#include <string>

#include "common/result.h"
#include "serialize/json.h"
#include "data/dataset.h"

namespace mmm {

/// \brief A reference to training data stored outside the model-management
/// system.
///
/// Optimization opportunity O2 (paper §3.1): "the training data is often
/// saved regardless of the model management", so the Provenance approach
/// persists one small reference per model instead of a dataset snapshot.
/// The reference carries a content hash so recovery can detect that the
/// externally stored data changed since the save.
struct DatasetRef {
  /// Locator understood by a DatasetResolver
  /// (e.g. "battery://cell/17/cycle/2").
  std::string uri;
  /// Hex SHA-256 of the dataset's canonical byte encoding ("" = unchecked).
  std::string content_hash;

  JsonValue ToJson() const;
  static Result<DatasetRef> FromJson(const JsonValue& json);

  bool operator==(const DatasetRef& other) const = default;
};

/// Canonical content hash of a dataset (hashes shapes and raw float bytes of
/// inputs then targets).
std::string HashTrainingData(const TrainingData& data);

/// \brief Resolves DatasetRefs back to data during Provenance recovery.
///
/// Implementations wrap whatever external system owns the data; in this
/// repository the scenario generators (battery, CIFAR) act as the external
/// system because their output is deterministic in the URI.
///
/// Thread-safety: Resolve() must be safe to call concurrently. Provenance
/// recovery calls it from service worker threads, and several recoveries
/// may run at once.
class DatasetResolver {
 public:
  virtual ~DatasetResolver() = default;

  /// Fetches the referenced dataset. Implementations must verify
  /// `ref.content_hash` when it is non-empty and fail with Corruption on
  /// mismatch.
  virtual Result<TrainingData> Resolve(const DatasetRef& ref) = 0;
};

}  // namespace mmm

#endif  // MMM_DATA_DATASET_REF_H_
