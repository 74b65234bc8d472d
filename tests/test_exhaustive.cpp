// Exhaustive verification on small fixtures: enumerate *complete* release
// offset grids (at 1 ms granularity, which includes all the alignment
// corner cases) under deterministic worst-case execution, and check every
// single configuration against the analytical bounds.  This is the
// strongest soundness evidence in the suite: no sampling, no randomness.

#include <gtest/gtest.h>

#include "chain/backward_bounds.hpp"
#include "common/error.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/buffer_opt.hpp"
#include "graph/paths.hpp"
#include "helpers.hpp"
#include "sim/backward.hpp"
#include "sim/simulator.hpp"

namespace ceta {
namespace {

/// Diamond with small harmonic periods so the grid stays tractable:
///   S(T=4) -> A(W=B=1,T=4,ecu0) -> {C(T=8,ecu0), D(T=8,ecu1)} -> E(T=8,ecu1)
TaskGraph small_diamond() {
  TaskGraph g;
  Task s;
  s.name = "S";
  s.period = Duration::ms(4);
  const TaskId sid = g.add_task(s);
  auto mk = [](const char* name, Duration period, EcuId ecu, int prio) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    t.priority = prio;
    return t;
  };
  const TaskId a = g.add_task(mk("A", Duration::ms(4), 0, 0));
  const TaskId c = g.add_task(mk("C", Duration::ms(8), 0, 1));
  const TaskId d = g.add_task(mk("D", Duration::ms(8), 1, 0));
  const TaskId e = g.add_task(mk("E", Duration::ms(8), 1, 1));
  g.add_edge(sid, a);
  g.add_edge(a, c);
  g.add_edge(a, d);
  g.add_edge(c, e);
  g.add_edge(d, e);
  g.validate();
  return g;
}

/// Two-source fusion:  S1(T=3) -> A(T=3,ecu0) -> F(T=6,ecu2)
///                     S2(T=6) -> B(T=6,ecu1) -> F
TaskGraph small_fusion() {
  TaskGraph g;
  Task s1;
  s1.name = "S1";
  s1.period = Duration::ms(3);
  const TaskId s1id = g.add_task(s1);
  Task s2;
  s2.name = "S2";
  s2.period = Duration::ms(6);
  const TaskId s2id = g.add_task(s2);
  auto mk = [](const char* name, Duration period, EcuId ecu) {
    Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = period;
    t.ecu = ecu;
    t.priority = 0;
    return t;
  };
  const TaskId a = g.add_task(mk("A", Duration::ms(3), 0));
  const TaskId b = g.add_task(mk("B", Duration::ms(6), 1));
  const TaskId f = g.add_task(mk("F", Duration::ms(6), 2));
  g.add_edge(s1id, a);
  g.add_edge(s2id, b);
  g.add_edge(a, f);
  g.add_edge(b, f);
  g.validate();
  return g;
}

TEST(Exhaustive, DiamondDisparityOverFullOffsetGrid) {
  TaskGraph g = small_diamond();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const Duration bound = analyze_time_disparity(g, 4, rtm).worst_case;

  Duration observed_max = Duration::zero();
  std::size_t combos = 0;
  for (int so = 0; so < 4; ++so) {
    for (int ao = 0; ao < 4; ++ao) {
      for (int co = 0; co < 8; co += 2) {
        for (int do_ = 0; do_ < 8; do_ += 2) {
          for (int eo = 0; eo < 8; eo += 2) {
            g.task(0).offset = Duration::ms(so);
            g.task(1).offset = Duration::ms(ao);
            g.task(2).offset = Duration::ms(co);
            g.task(3).offset = Duration::ms(do_);
            g.task(4).offset = Duration::ms(eo);
            SimOptions opt;
            opt.duration = Duration::ms(200);
            opt.exec_model = ExecTimeModel::kWorstCase;
            const SimResult res = Simulator(g, opt).run();
            ASSERT_LE(res.max_disparity[4], bound)
                << "offsets " << so << ',' << ao << ',' << co << ',' << do_
                << ',' << eo;
            observed_max = std::max(observed_max, res.max_disparity[4]);
            ++combos;
          }
        }
      }
    }
  }
  EXPECT_EQ(combos, 4u * 4u * 4u * 4u * 4u);
  // The exhaustive max is a certified lower bound on the true worst case;
  // it must land within the analytical bound and reasonably close to it.
  EXPECT_GT(observed_max, bound / 3);
}

TEST(Exhaustive, FusionPairBoundOverFullOffsetGrid) {
  TaskGraph g = small_fusion();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const auto chains = enumerate_source_chains(g, 4);
  ASSERT_EQ(chains.size(), 2u);
  const Duration bound =
      analyze_time_disparity(g, 4, rtm).worst_case;

  Duration observed_max = Duration::zero();
  for (int o1 = 0; o1 < 3; ++o1) {
    for (int o2 = 0; o2 < 6; ++o2) {
      for (int oa = 0; oa < 3; ++oa) {
        for (int ob = 0; ob < 6; ob += 2) {
          for (int of = 0; of < 6; of += 2) {
            g.task(0).offset = Duration::ms(o1);
            g.task(1).offset = Duration::ms(o2);
            g.task(2).offset = Duration::ms(oa);
            g.task(3).offset = Duration::ms(ob);
            g.task(4).offset = Duration::ms(of);
            SimOptions opt;
            opt.duration = Duration::ms(150);
            opt.exec_model = ExecTimeModel::kWorstCase;
            const SimResult res = Simulator(g, opt).run();
            ASSERT_LE(res.max_disparity[4], bound)
                << "offsets " << o1 << ',' << o2 << ',' << oa << ',' << ob
                << ',' << of;
            observed_max = std::max(observed_max, res.max_disparity[4]);
          }
        }
      }
    }
  }
  EXPECT_GT(observed_max, Duration::zero());
}

TEST(Exhaustive, BackwardTimesOverOffsetGridBothExecExtremes) {
  TaskGraph g = small_diamond();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const auto chains = enumerate_source_chains(g, 4);
  std::vector<BackwardBounds> bounds;
  for (const Path& c : chains) bounds.push_back(backward_bounds(g, c, rtm));

  for (int so = 0; so < 4; so += 1) {
    for (int ao = 0; ao < 4; ao += 1) {
      for (int eo = 0; eo < 8; eo += 2) {
        for (const ExecTimeModel model :
             {ExecTimeModel::kWorstCase, ExecTimeModel::kBestCase}) {
          g.task(0).offset = Duration::ms(so);
          g.task(1).offset = Duration::ms(ao);
          g.task(4).offset = Duration::ms(eo);
          SimOptions opt;
          opt.duration = Duration::ms(100);
          opt.exec_model = model;
          opt.record_trace = true;
          const SimResult res = Simulator(g, opt).run();
          for (std::size_t ci = 0; ci < chains.size(); ++ci) {
            const BackwardMeasurement m =
                measured_backward_times(g, res.trace, chains[ci]);
            for (Duration len : m.lengths) {
              ASSERT_LE(len, bounds[ci].wcbt);
              ASSERT_GE(len, bounds[ci].bcbt);
            }
          }
        }
      }
    }
  }
}

TEST(Exhaustive, BufferedFusionOverOffsetGrid) {
  TaskGraph g = small_fusion();
  const ResponseTimeMap rtm = testing::response_times_of(g);
  const auto chains = enumerate_source_chains(g, 4);
  const BufferDesign d = design_buffer(g, chains[0], chains[1], rtm);
  TaskGraph buffered = g;
  apply_buffer_design(buffered, d);

  for (int o1 = 0; o1 < 3; ++o1) {
    for (int o2 = 0; o2 < 6; o2 += 2) {
      for (int of = 0; of < 6; of += 2) {
        buffered.task(0).offset = Duration::ms(o1);
        buffered.task(1).offset = Duration::ms(o2);
        buffered.task(4).offset = Duration::ms(of);
        SimOptions opt;
        opt.warmup = Duration::ms(100);
        opt.duration = Duration::ms(300);
        opt.exec_model = ExecTimeModel::kWorstCase;
        const SimResult res = Simulator(buffered, opt).run();
        ASSERT_LE(res.max_disparity[4], d.optimized_bound)
            << "offsets " << o1 << ',' << o2 << ',' << of;
      }
    }
  }
}

}  // namespace
}  // namespace ceta
