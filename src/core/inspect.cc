#include "core/inspect.h"

#include <algorithm>
#include <map>

#include "cas/blob_io.h"
#include "common/strings.h"
#include "core/blob_formats.h"

namespace mmm {
namespace {

SetSummary SummaryFromDoc(const SetDocument& doc) {
  SetSummary summary;
  summary.id = doc.id;
  summary.approach = doc.approach;
  summary.kind = doc.kind;
  summary.base_set_id = doc.base_set_id;
  summary.family = doc.family;
  summary.num_models = doc.num_models;
  summary.chain_depth = doc.chain_depth;
  return summary;
}

std::vector<std::string> ArtifactBlobs(const SetDocument& doc) {
  std::vector<std::string> blobs;
  for (const std::string& blob :
       {doc.arch_blob, doc.param_blob, doc.hash_blob, doc.diff_blob,
        doc.prov_blob}) {
    if (!blob.empty()) blobs.push_back(blob);
  }
  return blobs;
}

Result<uint64_t> ArtifactBytes(const StoreContext& context,
                               const SetDocument& doc) {
  uint64_t total = 0;
  for (const std::string& blob : ArtifactBlobs(doc)) {
    MMM_ASSIGN_OR_RETURN(bool exists, context.file_store->Exists(blob));
    if (!exists) continue;
    // Logical artifact size: a chunked blob counts its reassembled bytes,
    // so summaries stay comparable across CAS-on and CAS-off stores.
    MMM_ASSIGN_OR_RETURN(uint64_t size,
                         CasBlobSize(context.file_store, context.cas, blob));
    total += size;
  }
  return total;
}

}  // namespace

Result<std::vector<SetSummary>> ListSets(const StoreContext& context) {
  MMM_RETURN_NOT_OK(context.Validate());
  if (context.doc_store->Count(kSetCollection) == 0) {
    return std::vector<SetSummary>{};
  }
  MMM_ASSIGN_OR_RETURN(std::vector<JsonValue> docs,
                       context.doc_store->All(kSetCollection));
  std::vector<SetSummary> summaries;
  summaries.reserve(docs.size());
  for (const JsonValue& json : docs) {
    MMM_ASSIGN_OR_RETURN(SetDocument doc, SetDocument::FromJson(json));
    SetSummary summary = SummaryFromDoc(doc);
    MMM_ASSIGN_OR_RETURN(summary.artifact_bytes, ArtifactBytes(context, doc));
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

Result<std::vector<SetSummary>> Lineage(const StoreContext& context,
                                        const std::string& set_id) {
  MMM_RETURN_NOT_OK(context.Validate());
  std::vector<SetSummary> chain;
  std::string current = set_id;
  uint64_t budget = context.doc_store->Count(kSetCollection) + 1;
  while (!current.empty()) {
    if (budget-- == 0) {
      return Status::Corruption("lineage of ", set_id, " does not terminate");
    }
    MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context, current));
    SetSummary summary = SummaryFromDoc(doc);
    MMM_ASSIGN_OR_RETURN(summary.artifact_bytes, ArtifactBytes(context, doc));
    chain.push_back(std::move(summary));
    current = doc.base_set_id;
  }
  return chain;
}

Result<ChainInspection> InspectChain(const StoreContext& context,
                                     const std::string& set_id) {
  MMM_RETURN_NOT_OK(context.Validate());
  ChainInspection inspection;
  inspection.set_id = set_id;
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context, set_id));
  inspection.recorded_depth = doc.chain_depth;
  uint64_t budget = context.doc_store->Count(kSetCollection) + 1;
  while (doc.kind != "full") {
    if (budget-- == 0) {
      return Status::Corruption("chain of ", set_id,
                                " does not reach a full snapshot");
    }
    if (doc.base_set_id.empty()) {
      return Status::Corruption("derived set ", doc.id, " has no base");
    }
    MMM_ASSIGN_OR_RETURN(doc, FetchSetDocument(context, doc.base_set_id));
    ++inspection.depth;
  }
  inspection.root_id = doc.id;
  return inspection;
}

Result<StoreValidationReport> ValidateStore(const StoreContext& context) {
  MMM_RETURN_NOT_OK(context.Validate());
  StoreValidationReport report;
  if (context.doc_store->Count(kSetCollection) == 0) return report;

  MMM_ASSIGN_OR_RETURN(std::vector<JsonValue> docs,
                       context.doc_store->All(kSetCollection));
  std::map<std::string, SetDocument> by_id;
  std::vector<SetDocument> set_docs;
  for (const JsonValue& json : docs) {
    auto parsed = SetDocument::FromJson(json);
    if (!parsed.ok()) {
      report.problems.push_back("unparseable set document: " +
                                parsed.status().ToString());
      continue;
    }
    set_docs.push_back(parsed.ValueOrDie());
    by_id[set_docs.back().id] = set_docs.back();
  }

  for (const SetDocument& doc : set_docs) {
    ++report.sets_checked;
    // MMlib-base stores one document + two blobs per model instead of
    // set-level artifacts; validate those and move on.
    if (doc.approach == "mmlib-base") {
      for (uint64_t index = 0; index < doc.num_models; ++index) {
        std::string model_id =
            StringFormat("%s-m%05llu", doc.id.c_str(),
                         static_cast<unsigned long long>(index));
        auto model_doc = context.doc_store->Get("mmlib_models", model_id);
        if (!model_doc.ok()) {
          report.problems.push_back(doc.id + ": missing model document " +
                                    model_id);
          continue;
        }
        auto weights_name = model_doc.ValueOrDie().GetString("weights_blob");
        if (!weights_name.ok()) {
          report.problems.push_back(model_id + ": document lacks weights_blob");
          continue;
        }
        auto blob = CasReadBlobDecompressed(context.file_store, context.cas,
                                            weights_name.ValueOrDie());
        if (!blob.ok()) {
          report.problems.push_back(model_id + ": cannot read weights blob");
          continue;
        }
        ++report.blobs_checked;
        report.bytes_checked += blob.ValueOrDie().size();
        if (auto decoded = DecodeStateDict(blob.ValueOrDie()); !decoded.ok()) {
          report.problems.push_back(model_id + ": corrupt weights blob: " +
                                    decoded.status().ToString());
        }
      }
      continue;
    }
    // 1. Structural expectations per kind.
    if (doc.kind == "full" && (doc.arch_blob.empty() || doc.param_blob.empty())) {
      report.problems.push_back(doc.id + ": full set missing arch/param blob");
    }
    if (doc.kind == "delta" && doc.diff_blob.empty()) {
      report.problems.push_back(doc.id + ": delta set missing diff blob");
    }
    if (doc.kind == "prov" && doc.prov_blob.empty()) {
      report.problems.push_back(doc.id + ": provenance set missing record blob");
    }
    if (doc.kind != "full" && doc.base_set_id.empty()) {
      report.problems.push_back(doc.id + ": derived set has no base");
    }
    if (!doc.base_set_id.empty() && !by_id.contains(doc.base_set_id) &&
        doc.kind != "full") {
      report.problems.push_back(doc.id + ": base set " + doc.base_set_id +
                                " is not in the store");
    }

    // 2. Architecture, where present (needed to decode blobs below).
    ArchitectureSpec spec;
    bool have_spec = false;
    if (!doc.arch_blob.empty()) {
      auto text =
          CasReadBlobString(context.file_store, context.cas, doc.arch_blob);
      if (!text.ok()) {
        report.problems.push_back(doc.id + ": cannot read arch blob: " +
                                  text.status().ToString());
      } else {
        auto decoded = DecodeArchBlob(text.ValueOrDie());
        if (!decoded.ok()) {
          report.problems.push_back(doc.id + ": corrupt arch blob: " +
                                    decoded.status().ToString());
        } else {
          spec = std::move(decoded).ValueOrDie();
          have_spec = true;
        }
        ++report.blobs_checked;
        report.bytes_checked += text.ValueOrDie().size();
      }
    }

    // 3. Binary artifacts: existence, decompression, CRC, decodability.
    auto check_blob = [&](const std::string& name,
                          auto decode) {
      if (name.empty()) return;
      auto decompressed =
          CasReadBlobDecompressed(context.file_store, context.cas, name);
      if (!decompressed.ok()) {
        report.problems.push_back(doc.id + ": cannot read " + name + ": " +
                                  decompressed.status().ToString());
        return;
      }
      ++report.blobs_checked;
      report.bytes_checked += decompressed.ValueOrDie().size();
      Status st = decode(decompressed.ValueOrDie());
      if (!st.ok()) {
        report.problems.push_back(doc.id + ": corrupt " + name + ": " +
                                  st.ToString());
      }
    };
    // The parameter blob is the largest artifact (a whole set's weights),
    // so it is streamed through recovery's decoder, which checks the same
    // header, counts and CRC footer as DecodeParamBlob but buffers one
    // window and one layer instead of the stored, decompressed and decoded
    // copies of the blob. The footer covers the layer CRC table but not
    // its agreement with the layers, which only ranged reads rely on, so
    // each layer's CRC is computed here and compared with the table.
    if (have_spec && !doc.param_blob.empty()) {
      auto size = CasBlobSize(context.file_store, context.cas, doc.param_blob);
      if (!size.ok()) {
        report.problems.push_back(doc.id + ": cannot read " + doc.param_blob +
                                  ": " + size.status().ToString());
      } else {
        ++report.blobs_checked;
        report.bytes_checked += size.ValueOrDie();
        std::vector<uint32_t> computed;
        std::vector<uint32_t> table;
        Status st = StreamParamBlob(
            context, doc.param_blob, spec, doc.num_models,
            [&computed](size_t, size_t, const std::string&, Tensor tensor) {
              computed.push_back(LayerCrc(tensor));
              return Status::OK();
            },
            &table);
        if (!st.ok()) {
          report.problems.push_back(doc.id + ": corrupt " + doc.param_blob +
                                    ": " + st.ToString());
        } else if (!table.empty() && table != computed) {
          const size_t at = static_cast<size_t>(
              std::mismatch(table.begin(), table.end(), computed.begin())
                  .first -
              table.begin());
          const size_t num_layers = LayoutOf(spec).size();
          report.problems.push_back(
              doc.id + ": corrupt " + doc.param_blob +
              ": layer crc table disagrees with layer (" +
              std::to_string(at / num_layers) + ", " +
              std::to_string(at % num_layers) + ")");
        }
      }
    } else {
      check_blob(doc.param_blob,
                 [](const std::vector<uint8_t>&) { return Status::OK(); });
    }
    check_blob(doc.hash_blob, [&](const std::vector<uint8_t>& blob) {
      return DecodeHashTable(blob, doc.num_models).status();
    });
    check_blob(doc.diff_blob, [&](const std::vector<uint8_t>& blob) -> Status {
      // The architecture lives at the chain root; resolve it to decode.
      const SetDocument* cursor = &doc;
      uint64_t budget = set_docs.size() + 1;
      while (cursor->arch_blob.empty() && by_id.contains(cursor->base_set_id)) {
        if (budget-- == 0) break;
        cursor = &by_id.at(cursor->base_set_id);
      }
      if (cursor->arch_blob.empty()) {
        return Status::OK();  // broken chain, reported separately
      }
      MMM_ASSIGN_OR_RETURN(std::string text,
                           CasReadBlobString(context.file_store, context.cas,
                                             cursor->arch_blob));
      MMM_ASSIGN_OR_RETURN(ArchitectureSpec root_spec, DecodeArchBlob(text));
      return DiffView::Parse(root_spec, blob).status();
    });
    check_blob(doc.prov_blob, [&](const std::vector<uint8_t>& blob) {
      std::string text(reinterpret_cast<const char*>(blob.data()), blob.size());
      return JsonValue::Parse(text).status();
    });

    // 4. Chain termination.
    if (doc.kind != "full") {
      std::string current = doc.base_set_id;
      uint64_t budget = set_docs.size() + 1;
      bool terminated = false;
      while (by_id.contains(current)) {
        if (budget-- == 0) break;
        const SetDocument& base = by_id.at(current);
        if (base.kind == "full") {
          terminated = true;
          break;
        }
        current = base.base_set_id;
      }
      if (!terminated) {
        report.problems.push_back(doc.id +
                                  ": chain does not reach a full snapshot");
      }
    }
  }

  // 5. Content-addressed store invariants (DESIGN.md §10): every manifest's
  // chunks exist with the right sizes and hashes, no chunk is orphaned or
  // refcounted wrong, and the store keeps the marker that re-enables CAS.
  // Chunk blobs count toward the totals like any other artifact.
  if (context.cas != nullptr) {
    MMM_ASSIGN_OR_RETURN(CasStore::Stats cas_stats, context.cas->ComputeStats());
    report.blobs_checked += cas_stats.unique_chunks;
    report.bytes_checked += cas_stats.chunk_bytes;
    MMM_RETURN_NOT_OK(context.cas->Audit(&report.problems));
  }
  return report;
}

}  // namespace mmm
