#ifndef MMM_CORE_BASELINE_H_
#define MMM_CORE_BASELINE_H_

#include "core/approach.h"

namespace mmm {

/// \brief The paper's Baseline approach (§3.2).
///
/// Represents a set by exactly three artifacts — one metadata document, one
/// architecture blob, one concatenated parameter blob — addressing O1
/// (architecture/metadata stored once per set, parameters stored without
/// per-model dictionary keys) and O3 (a constant number of store writes per
/// set instead of ~3n).
///
/// Every saved set is independently recoverable: storage consumption is flat
/// across update cycles, and time-to-recover is constant (Figures 3/5).
class BaselineApproach : public ModelSetApproach {
 public:
  explicit BaselineApproach(StoreContext context) : ModelSetApproach(context) {}

  std::string Name() const override { return "baseline"; }
  Result<SaveResult> SaveInitial(const ModelSet& set) override;
  Result<SaveResult> SaveDerived(const ModelSet& set,
                                 const ModelSetUpdateInfo& update) override;
  Result<ModelSet> Recover(SetDocument doc, RecoverStats* stats) override;
  Result<std::vector<StateDict>> RecoverModels(SetDocument doc,
                                               const std::vector<size_t>& indices,
                                               RecoverStats* stats) override;
  using ModelSetApproach::Recover;
  using ModelSetApproach::RecoverModels;

 private:
  Result<SaveResult> SaveSnapshot(const ModelSet& set,
                                  const std::string& base_set_id);
};

}  // namespace mmm

#endif  // MMM_CORE_BASELINE_H_
