#include "sim_oracle/provenance.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ceta {

Provenance Provenance::of_source(TaskId source, Instant timestamp) {
  Provenance p;
  p.stamps_.push_back(SourceStamp{source, timestamp, timestamp});
  return p;
}

void Provenance::merge(const Provenance& other) {
  if (other.stamps_.empty()) return;
  if (stamps_.empty()) {
    stamps_ = other.stamps_;
    return;
  }
  // Merge two source-sorted stamp lists.
  std::vector<SourceStamp> merged;
  merged.reserve(stamps_.size() + other.stamps_.size());
  std::size_t i = 0, j = 0;
  while (i < stamps_.size() && j < other.stamps_.size()) {
    const SourceStamp& a = stamps_[i];
    const SourceStamp& b = other.stamps_[j];
    if (a.source == b.source) {
      merged.push_back(SourceStamp{a.source, std::min(a.min_ts, b.min_ts),
                                   std::max(a.max_ts, b.max_ts)});
      ++i;
      ++j;
    } else if (a.source < b.source) {
      merged.push_back(a);
      ++i;
    } else {
      merged.push_back(b);
      ++j;
    }
  }
  for (; i < stamps_.size(); ++i) merged.push_back(stamps_[i]);
  for (; j < other.stamps_.size(); ++j) merged.push_back(other.stamps_[j]);
  stamps_ = std::move(merged);
}

Duration Provenance::disparity() const {
  if (stamps_.empty()) return Duration::zero();
  return max_timestamp() - min_timestamp();
}

Instant Provenance::min_timestamp() const {
  CETA_EXPECTS(!stamps_.empty(), "Provenance::min_timestamp on empty");
  Instant m = stamps_.front().min_ts;
  for (const SourceStamp& s : stamps_) m = std::min(m, s.min_ts);
  return m;
}

Instant Provenance::max_timestamp() const {
  CETA_EXPECTS(!stamps_.empty(), "Provenance::max_timestamp on empty");
  Instant m = stamps_.front().max_ts;
  for (const SourceStamp& s : stamps_) m = std::max(m, s.max_ts);
  return m;
}

}  // namespace ceta
