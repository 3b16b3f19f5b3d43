#ifndef MMM_STORAGE_RANGE_PLANNER_H_
#define MMM_STORAGE_RANGE_PLANNER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "storage/latency_model.h"

namespace mmm {

/// \brief Coalesces byte extents, taken in the order a reader needs them,
/// into ranged store reads, each one round trip (FileStore::OpenStream
/// with an offset and length). The one read plan of the ranged readers:
/// the CAS pack reader (cas/pack.h) and Update's root-snapshot reader
/// (core/update.cc).
///
/// The round-trip rule: an extent joins the open range of its stream (a
/// pack, or the one blob being read) unless it lies behind that range's
/// end, or the gap to it costs more to transfer than a new round trip,
/// `gap * per_byte_nanos >= per_op_nanos` of the store's latency model.
/// With a zero-cost model only touching extents join.
class RangePlanner {
 public:
  struct Range {
    uint64_t stream = 0;
    uint64_t start = 0;
    uint64_t end = 0;
  };

  explicit RangePlanner(const StoreLatencyModel& cost) : cost_(cost) {}

  /// Adds the next extent `[offset, offset + length)` of `stream` and
  /// returns the index into ranges() of the range that holds it.
  size_t Add(uint64_t stream, uint64_t offset, uint64_t length) {
    auto open = open_.find(stream);
    bool join = false;
    if (open != open_.end() && offset >= ranges_[open->second].end) {
      const uint64_t gap = offset - ranges_[open->second].end;
      join = gap == 0 || static_cast<double>(gap) * cost_.per_byte_nanos <
                             static_cast<double>(cost_.per_op_nanos);
    }
    if (!join) {
      open = open_.insert_or_assign(stream, ranges_.size()).first;
      ranges_.push_back({stream, offset, offset});
    }
    ranges_[open->second].end = offset + length;
    return open->second;
  }

  const std::vector<Range>& ranges() const { return ranges_; }

 private:
  StoreLatencyModel cost_;
  std::vector<Range> ranges_;
  std::map<uint64_t, size_t> open_;  ///< stream -> its open range
};

}  // namespace mmm

#endif  // MMM_STORAGE_RANGE_PLANNER_H_
