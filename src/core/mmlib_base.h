#ifndef MMM_CORE_MMLIB_BASE_H_
#define MMM_CORE_MMLIB_BASE_H_

#include "core/approach.h"
#include "prov/environment.h"

namespace mmm {

/// \brief MMlib's baseline approach (the paper's reference point, §2.2/§4.1).
///
/// Saves every model of a set *individually*, as a single-model management
/// system would: per model one weights blob (state dict with layer-name
/// keys), one source-code artifact, and one metadata document embedding the
/// full architecture description and environment info. This is deliberately
/// wasteful in exactly the ways the paper identifies:
///   - O1: architecture, dict keys, code, and environment are persisted
///     n times per set;
///   - O3: every model costs two file-store writes plus a document-store
///     round-trip, so saving n models is ~3n store operations.
class MMlibBaseApproach : public ModelSetApproach {
 public:
  /// \param environment environment snapshot persisted per model (MMlib
  ///        records it with every save).
  MMlibBaseApproach(StoreContext context, EnvironmentInfo environment);

  std::string Name() const override { return "mmlib-base"; }
  Result<SaveResult> SaveInitial(const ModelSet& set) override;
  Result<SaveResult> SaveDerived(const ModelSet& set,
                                 const ModelSetUpdateInfo& update) override;
  Result<ModelSet> Recover(SetDocument set_doc, RecoverStats* stats) override;
  Result<std::vector<StateDict>> RecoverModels(SetDocument set_doc,
                                               const std::vector<size_t>& indices,
                                               RecoverStats* stats) override;
  using ModelSetApproach::Recover;
  using ModelSetApproach::RecoverModels;

 private:
  Result<SaveResult> SaveAllIndividually(const ModelSet& set);

  EnvironmentInfo environment_;
};

/// Document-store collection holding MMlib-base's per-model documents.
inline constexpr char kMmlibModelCollection[] = "mmlib_models";

}  // namespace mmm

#endif  // MMM_CORE_MMLIB_BASE_H_
