// Tests for the runtime invariant checker (src/sim/invariants.h): clean runs
// report nothing and are bit-identical to unchecked runs; an intentionally
// injected simulator bug (the sim.queue.drop_uncounted failpoint) is caught
// in fatal mode, counted in report mode, and visibly diverges an event trace
// — the same signal the golden-trace differential regression keys on.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cc/cubic.h"
#include "src/sim/invariants.h"
#include "src/sim/network.h"
#include "src/sim/trace.h"
#include "src/util/failpoint.h"
#include "src/util/metrics.h"

namespace astraea {
namespace {

FlowSpec CubicFlow(TimeNs start = 0, TimeNs duration = -1) {
  FlowSpec spec;
  spec.scheme = "cubic";
  spec.make_cc = [] { return std::make_unique<Cubic>(); };
  spec.start = start;
  spec.duration = duration;
  return spec;
}

// One dumbbell scenario with both loss kinds (queue drops from the shallow
// buffer, iid wire loss) so every checker site gets exercised. Returns the
// full in-memory event trace when `tracer` is given.
uint64_t RunScenario(Tracer* tracer = nullptr) {
  Network net(7);
  LinkConfig link;
  link.rate = Mbps(20);
  link.propagation_delay = Milliseconds(10);
  link.buffer_bytes = 50'000;  // shallow: forces queue drops
  link.random_loss = 0.01;
  net.AddLink(link);
  net.AddFlow(CubicFlow());
  if (tracer != nullptr) {
    net.SetTracer(tracer);
  }
  net.Run(Seconds(3.0));
  return net.flow_stats(0).bytes_acked;
}

std::vector<TraceEvent> RunTraced() {
  Tracer tracer("", Tracer::Format::kNone, 1 << 18);
  RunScenario(&tracer);
  return tracer.BufferedEvents();
}

TEST(InvariantsTest, CleanRunReportsNothingInFatalMode) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  const uint64_t before = invariants::ViolationCount();
  EXPECT_GT(RunScenario(), 0u);  // would have thrown on any violation
  EXPECT_EQ(invariants::ViolationCount(), before);
}

TEST(InvariantsTest, CheckedRunIsBitIdenticalToUncheckedRun) {
  std::vector<TraceEvent> unchecked;
  {
    invariants::ScopedMode off(invariants::Mode::kOff);
    unchecked = RunTraced();
  }
  std::vector<TraceEvent> checked;
  {
    invariants::ScopedMode fatal(invariants::Mode::kFatal);
    checked = RunTraced();
  }
  ASSERT_GT(unchecked.size(), 1000u);
  ASSERT_EQ(unchecked.size(), checked.size());
  for (size_t i = 0; i < unchecked.size(); ++i) {
    EXPECT_EQ(unchecked[i].time, checked[i].time) << "event " << i;
    EXPECT_EQ(unchecked[i].type, checked[i].type) << "event " << i;
    EXPECT_EQ(unchecked[i].flow_id, checked[i].flow_id) << "event " << i;
    EXPECT_EQ(unchecked[i].link_id, checked[i].link_id) << "event " << i;
    EXPECT_EQ(unchecked[i].seq, checked[i].seq) << "event " << i;
    EXPECT_EQ(unchecked[i].a, checked[i].a) << "event " << i;
    EXPECT_EQ(unchecked[i].b, checked[i].b) << "event " << i;
  }
}

TEST(InvariantsTest, InjectedConservationBugThrowsInFatalMode) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  failpoint::Configure("sim.queue.drop_uncounted=1");
  EXPECT_THROW(RunScenario(), invariants::Violation);
  failpoint::Clear();
}

TEST(InvariantsTest, InjectedConservationBugIsCountedInReportMode) {
  invariants::ScopedMode report(invariants::Mode::kReport);
  const uint64_t before = invariants::ViolationCount();
  const uint64_t link_before =
      MetricsRegistry::Global().GetCounter("invariants.link.conservation").Value();
  failpoint::Configure("sim.queue.drop_uncounted=1");
  RunScenario();  // must NOT throw: report mode counts and continues
  failpoint::Clear();
  EXPECT_GT(invariants::ViolationCount(), before);
  EXPECT_GT(MetricsRegistry::Global().GetCounter("invariants.link.conservation").Value(),
            link_before);
}

TEST(InvariantsTest, InjectedBugDivergesEventTrace) {
  // The golden-trace regression catches the same injected bug: the recorded
  // event stream of a buggy run differs from the clean run's stream.
  std::vector<TraceEvent> clean;
  std::vector<TraceEvent> buggy;
  {
    invariants::ScopedMode off(invariants::Mode::kOff);
    clean = RunTraced();
    failpoint::Configure("sim.queue.drop_uncounted=1");
    buggy = RunTraced();
    failpoint::Clear();
  }
  ASSERT_GT(clean.size(), 0u);
  bool differs = clean.size() != buggy.size();
  for (size_t i = 0; !differs && i < clean.size(); ++i) {
    differs = clean[i].time != buggy[i].time || clean[i].type != buggy[i].type ||
              clean[i].seq != buggy[i].seq || clean[i].a != buggy[i].a ||
              clean[i].b != buggy[i].b;
  }
  EXPECT_TRUE(differs);
}

// Owner of a timer that does nothing when it fires.
struct Idle {
  void Fire() {}
};

TEST(InvariantsTest, SchedulingInThePastThrowsInFatalMode) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  EventQueue events;
  Idle idle;
  Timer<Idle, &Idle::Fire> timer(&events, &idle);
  timer.Arm(Milliseconds(10));
  events.RunUntil(Milliseconds(10));
  EXPECT_THROW(timer.Arm(Milliseconds(5)), invariants::Violation);
}

TEST(InvariantsTest, ScopedModeRestoresPreviousMode) {
  const invariants::Mode outer = invariants::CurrentMode();
  {
    invariants::ScopedMode report(invariants::Mode::kReport);
    EXPECT_EQ(invariants::CurrentMode(), invariants::Mode::kReport);
    {
      invariants::ScopedMode fatal(invariants::Mode::kFatal);
      EXPECT_EQ(invariants::CurrentMode(), invariants::Mode::kFatal);
    }
    EXPECT_EQ(invariants::CurrentMode(), invariants::Mode::kReport);
  }
  EXPECT_EQ(invariants::CurrentMode(), outer);
}

}  // namespace
}  // namespace astraea
