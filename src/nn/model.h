#ifndef MMM_NN_MODEL_H_
#define MMM_NN_MODEL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "nn/architecture.h"
#include "nn/sequential.h"

namespace mmm {

/// Ordered qualified-name -> tensor snapshot of a model's parameters.
/// This is the persistence unit of every management approach.
using StateDict = std::vector<std::pair<std::string, Tensor>>;

/// \brief A deployable model: an architecture plus its parameter values.
///
/// Models are move-only (the network owns its layers); use Clone() to copy.
/// The management layer identifies a model inside a set purely by its index,
/// mirroring the paper's setting where model k always corresponds to battery
/// cell k across update cycles.
class Model {
 public:
  /// Builds a model with zero-initialized parameters.
  static Result<Model> Create(const ArchitectureSpec& spec);

  /// Builds a model and initializes parameters deterministically from `seed`.
  static Result<Model> CreateInitialized(const ArchitectureSpec& spec,
                                         uint64_t seed);

  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  const ArchitectureSpec& spec() const { return spec_; }
  Sequential* network() { return network_.get(); }

  /// Runs the network in inference mode.
  Tensor Predict(const Tensor& input) { return network_->Forward(input); }

  /// Copy of all parameters, in deterministic order. The tensors share the
  /// model's buffers until either side writes (see Tensor).
  StateDict GetStateDict() const;

  /// Loads parameters; keys and shapes must match the model exactly.
  Status LoadStateDict(const StateDict& state);

  /// Total scalar parameter count.
  size_t ParameterCount() const { return network_->ParameterCount(); }

  /// Independent copy (same spec, same parameters).
  Result<Model> Clone() const;

 private:
  Model(ArchitectureSpec spec, std::unique_ptr<Sequential> network)
      : spec_(std::move(spec)), network_(std::move(network)) {}

  ArchitectureSpec spec_;
  std::unique_ptr<Sequential> network_;
};

}  // namespace mmm

#endif  // MMM_NN_MODEL_H_
