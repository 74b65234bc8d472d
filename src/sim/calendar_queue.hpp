// Calendar queue for the Monte-Carlo-scale simulator core.
//
// A discrete-event simulation of a periodic task set schedules almost all
// of its events within a few periods of "now" — the classic calendar
// queue regime.  Events are POD records hashed by time into a cyclic
// power-of-two array of buckets (one "year" of width·buckets
// nanoseconds); events beyond the current year wait in an overflow store
// and are redistributed when the year they belong to opens.  Buckets sort
// their unconsumed tail lazily on first access, so pushes are O(1) and
// pops amortize the usual O(log bucket-occupancy).
//
// Ordering is the engine's total event order: (time, kind, seq) — kinds
// make same-instant writes visible before reads (engine.hpp), seq makes
// same-(time, kind) events FIFO in push order.  Pop order is exactly the
// order a binary heap with the same comparator would produce.  Pushes
// need not be time-ordered: an event before the consumption cursor
// rewinds it (the swept buckets behind it are empty), and one before the
// open year respills the calendar — both are O(1)-amortized rarities in
// the discrete-event regime (the simulator's initial release seeding is
// the main source), while the steady state pays the O(1) bucket hash.
//
// clear() empties the queue but keeps every bucket's capacity, so a
// Simulator reset between seeded replications allocates nothing.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "graph/task.hpp"

namespace ceta::sim {

/// Event kinds in processing order at equal instants: finish events
/// (writes) become visible first, then LET publishes, then source tokens,
/// then release events — matching Definition 1's "finishes no later than
/// the start" (inclusive).
enum class EventKind : std::uint32_t {
  kFinish = 0,
  kPublish = 1,
  kSourceRelease = 2,
  kRelease = 3,
};

/// POD simulation event.  Field use by kind:
///  * kRelease/kSourceRelease: task + job index;
///  * kFinish: ecu (dense index) + job = finish generation;
///  * kPublish: task + job = pending-publish slot.
struct SimEvent {
  Instant time;
  EventKind kind = EventKind::kRelease;
  std::uint32_t ecu = 0;
  std::uint64_t seq = 0;
  TaskId task = 0;
  std::int64_t job = 0;
};

inline bool event_before(const SimEvent& a, const SimEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.seq < b.seq;
}

class CalendarQueue {
 public:
  /// Default geometry (~131us buckets); configure() before serious use.
  CalendarQueue() { configure(Duration::ns(1 << 17), 256); }

  /// Set the bucket width and bucket count — both powers of two, so the
  /// time-to-bucket hash is a shift and the year floor a mask (no integer
  /// division anywhere on the push path).  Drops any queued events.  A
  /// good width makes one bucket hold a handful of events — the Simulator
  /// derives it from the release lattice (shortest task period).
  void configure(Duration bucket_width, std::size_t num_buckets) {
    CETA_EXPECTS(bucket_width > Duration::zero() &&
                     (bucket_width.count() & (bucket_width.count() - 1)) == 0,
                 "CalendarQueue: bucket width must be a positive power of two");
    CETA_EXPECTS(num_buckets >= 2 && (num_buckets & (num_buckets - 1)) == 0,
                 "CalendarQueue: bucket count must be a power of two >= 2");
    width_ = bucket_width.count();
    width_shift_ = 0;
    while ((std::int64_t{1} << width_shift_) < width_) ++width_shift_;
    buckets_.assign(num_buckets, Bucket{});
    mask_ = num_buckets - 1;
    overflow_.clear();
    touched_.clear();
    size_ = 0;
    cursor_ = 0;
    year_base_ = 0;
    front_ = nullptr;
  }

  /// Empty the queue, keeping all bucket/overflow capacity.  Only buckets
  /// that received an event since the last clear are visited (the
  /// `touched_` list), so a reset between short replications costs O(events),
  /// not O(buckets).
  void clear() {
    for (const std::size_t k : touched_) {
      Bucket& b = buckets_[k];
      b.items.clear();
      b.head = 0;
      b.dirty = false;
    }
    touched_.clear();
    overflow_.clear();
    size_ = 0;
    cursor_ = 0;
    year_base_ = 0;
    front_ = nullptr;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const SimEvent& e) {
    front_ = nullptr;  // may precede the cached front, or reallocate it away
    const std::int64_t t = e.time.count();
    if (size_ == 0) {
      // Rebase the calendar on the first event of a (possibly fresh) run.
      year_base_ = year_floor(t);
      cursor_ = offset_in_year(t);
    } else if (t < year_base_) {
      // Earlier year than the open one: spill every calendared event to
      // the overflow store and reopen the year of `t`.  advance_year()
      // brings them back as their years come up.
      for (Bucket& b : buckets_) {
        overflow_.insert(overflow_.end(),
                         b.items.begin() + static_cast<std::ptrdiff_t>(b.head),
                         b.items.end());
        b.items.clear();
        b.head = 0;
        b.dirty = false;
      }
      year_base_ = year_floor(t);
      cursor_ = offset_in_year(t);
    }
    if (t - year_base_ < year_length()) {
      const std::size_t k = offset_in_year(t);
      // Behind the consumption cursor is fine: every swept bucket is
      // empty, so rewinding over them restores the scan invariant.
      cursor_ = std::min(cursor_, k);
      place(k, e);
    } else {
      overflow_.push_back(e);
    }
    ++size_;
  }

  /// Smallest event by (time, kind, seq); precondition: !empty().  The
  /// located front is cached, so the peek/peek/pop pattern of the run
  /// loop pays one bucket scan per event, not three.
  const SimEvent& peek() {
    if (front_ == nullptr) front_ = locate();
    return *front_;
  }

  SimEvent pop() {
    if (front_ == nullptr) front_ = locate();
    const SimEvent out = *front_;
    front_ = nullptr;
    ++buckets_[cursor_].head;
    --size_;
    return out;
  }

 private:
  struct Bucket {
    std::vector<SimEvent> items;
    std::size_t head = 0;  ///< consumed prefix
    bool dirty = false;    ///< unsorted tail present
  };

  /// width·buckets; callers keep it <= 2^62 (see Simulator), and year
  /// membership is tested as t − year_base < year_length so the test
  /// cannot overflow for any t >= year_base.
  std::int64_t year_length() const {
    return width_ * static_cast<std::int64_t>(mask_ + 1);
  }

  /// Largest multiple of the (power-of-two) year length <= t; a mask, and
  /// correct for negative t in two's complement.
  std::int64_t year_floor(std::int64_t t) const {
    return t & ~(year_length() - 1);
  }

  /// Bucket index of instant `t`; valid only for t within the current
  /// year (t >= year_base_), so the index is the non-negative
  /// (t - year_base) >> log2(width) and is monotone in t.
  std::size_t offset_in_year(std::int64_t t) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(t - year_base_) >> width_shift_);
  }

  SimEvent* locate() {
    CETA_EXPECTS(size_ > 0, "CalendarQueue: peek/pop on an empty queue");
    for (;;) {
      while (cursor_ <= mask_) {
        Bucket& b = buckets_[cursor_];
        if (b.head < b.items.size()) {
          if (b.dirty) {
            std::sort(b.items.begin() + static_cast<std::ptrdiff_t>(b.head),
                      b.items.end(), event_before);
            b.dirty = false;
          }
          return &b.items[b.head];
        }
        b.items.clear();
        b.head = 0;
        b.dirty = false;
        ++cursor_;
      }
      advance_year();
    }
  }

  /// The current year is exhausted: open the year of the earliest
  /// overflow event and pull every event of that year into the calendar.
  void advance_year() {
    CETA_ASSERT(!overflow_.empty(),
                "CalendarQueue: events counted but none stored");
    std::int64_t earliest = overflow_.front().time.count();
    for (const SimEvent& e : overflow_) {
      earliest = std::min(earliest, e.time.count());
    }
    year_base_ = year_floor(earliest);
    cursor_ = offset_in_year(earliest);
    spill_.clear();
    for (const SimEvent& e : overflow_) {
      const std::int64_t t = e.time.count();
      if (t - year_base_ < year_length()) {
        place(offset_in_year(t), e);
      } else {
        spill_.push_back(e);
      }
    }
    overflow_.swap(spill_);
  }

  /// Append an event to bucket `k`, recording first use for clear().
  void place(std::size_t k, const SimEvent& e) {
    Bucket& b = buckets_[k];
    if (b.items.empty() && b.head == 0) touched_.push_back(k);
    b.items.push_back(e);
    b.dirty = true;
  }

  std::int64_t width_ = 1;
  int width_shift_ = 0;  ///< log2(width_)
  std::size_t mask_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<SimEvent> overflow_;   ///< events beyond the current year
  std::vector<SimEvent> spill_;      ///< reusable scratch for advance_year
  std::vector<std::size_t> touched_; ///< buckets used since last clear()
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;     ///< first possibly-nonempty bucket index
  std::int64_t year_base_ = 0;
  const SimEvent* front_ = nullptr;  ///< cached locate(); invalid on push/pop
};

}  // namespace ceta::sim
