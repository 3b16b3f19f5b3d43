#include "core/model_set.h"

#include <cstring>

#include "common/strings.h"

namespace mmm {

ParamLayout LayoutOf(const ArchitectureSpec& spec) {
  ParamLayout layout;
  for (const LayerSpec& layer : spec.layers) {
    if (layer.type == "linear") {
      layout.emplace_back(layer.name + ".weight", Shape{layer.out, layer.in});
      layout.emplace_back(layer.name + ".bias", Shape{layer.out});
    } else if (layer.type == "conv2d") {
      layout.emplace_back(layer.name + ".weight",
                          Shape{layer.out, layer.in, layer.kernel, layer.kernel});
      layout.emplace_back(layer.name + ".bias", Shape{layer.out});
    }
  }
  return layout;
}

size_t LayoutNumel(const ParamLayout& layout) {
  size_t numel = 0;
  for (const auto& [_, shape] : layout) numel += Tensor::NumElements(shape);
  return numel;
}

Status CheckSetConsistent(const ModelSet& set) {
  ParamLayout layout = LayoutOf(set.spec);
  for (size_t m = 0; m < set.models.size(); ++m) {
    const StateDict& state = set.models[m];
    if (state.size() != layout.size()) {
      return Status::InvalidArgument("model ", m, " has ", state.size(),
                                     " parameters, layout expects ",
                                     layout.size());
    }
    for (size_t i = 0; i < layout.size(); ++i) {
      if (state[i].first != layout[i].first) {
        return Status::InvalidArgument("model ", m, " parameter ", i, " is '",
                                       state[i].first, "', layout expects '",
                                       layout[i].first, "'");
      }
      if (state[i].second.shape() != layout[i].second) {
        return Status::InvalidArgument("model ", m, " parameter '",
                                       state[i].first, "' has wrong shape");
      }
    }
  }
  return Status::OK();
}

Result<ModelSet> MakeInitializedSet(const ArchitectureSpec& spec, size_t count,
                                    uint64_t seed) {
  ModelSet set;
  set.spec = spec;
  set.models.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    uint64_t model_seed = Rng::Mix64(seed ^ (k * 0x9e3779b97f4a7c15ULL + 1));
    MMM_ASSIGN_OR_RETURN(Model model, Model::CreateInitialized(spec, model_seed));
    set.models.push_back(model.GetStateDict());
  }
  return set;
}

std::string DiffSets(const ModelSet& got, const ModelSet& want) {
  if (!(got.spec == want.spec)) return "architecture spec differs";
  if (got.models.size() != want.models.size()) {
    return StringFormat("model count %zu != expected %zu", got.models.size(),
                        want.models.size());
  }
  for (size_t m = 0; m < got.models.size(); ++m) {
    if (got.models[m].size() != want.models[m].size()) {
      return StringFormat("model %zu parameter count differs", m);
    }
    for (size_t p = 0; p < got.models[m].size(); ++p) {
      const auto& [got_key, got_tensor] = got.models[m][p];
      const auto& [want_key, want_tensor] = want.models[m][p];
      if (got_key != want_key) {
        return StringFormat("model %zu param %zu key '%s' != '%s'", m, p,
                            got_key.c_str(), want_key.c_str());
      }
      if (got_tensor.shape() != want_tensor.shape() ||
          (got_tensor.numel() != 0 &&
           std::memcmp(got_tensor.data().data(), want_tensor.data().data(),
                       got_tensor.numel() * sizeof(float)) != 0)) {
        return StringFormat("model %zu param '%s' bytes differ", m,
                            got_key.c_str());
      }
    }
  }
  return "";
}

}  // namespace mmm
