#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "trace/callstack.h"

namespace diog::trace {
namespace {

TEST(FrameTable, InterningIsIdempotent) {
  auto& table = FrameTable::instance();
  const Frame* a = table.intern("foo", "f.cc", 10);
  const Frame* b = table.intern("foo", "f.cc", 10);
  EXPECT_EQ(a, b);
}

TEST(FrameTable, DistinctLocationsDistinctFrames) {
  auto& table = FrameTable::instance();
  const Frame* a = table.intern("foo", "f.cc", 10);
  EXPECT_NE(a, table.intern("foo", "f.cc", 11));
  EXPECT_NE(a, table.intern("foo", "g.cc", 10));
  EXPECT_NE(a, table.intern("bar", "f.cc", 10));
}

// Regression for the documented thread-safety contract: hook callbacks
// and run readers intern from arbitrary threads; racing interns of the
// same location must agree on one Frame* and never corrupt the table.
TEST(FrameTable, ConcurrentInterningIsSafeAndConsistent) {
  auto& table = FrameTable::instance();
  constexpr int kThreads = 8;
  constexpr int kLocations = 64;
  constexpr int kRounds = 50;

  std::vector<std::vector<const Frame*>> seen(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      auto& mine = seen[t];
      mine.resize(kLocations);
      for (int round = 0; round < kRounds; ++round) {
        for (int loc = 0; loc < kLocations; ++loc) {
          const Frame* f = table.intern(
              "concurrent_fn_" + std::to_string(loc), "conc.cc", loc);
          if (round == 0) {
            mine[loc] = f;
          } else {
            // Stable across repeated interns from this thread.
            ASSERT_EQ(mine[loc], f);
          }
        }
      }
    });
  }
  go.store(true);
  for (std::thread& th : threads) th.join();

  // Every thread resolved every location to the same frame.
  for (int t = 1; t < kThreads; ++t) {
    for (int loc = 0; loc < kLocations; ++loc) {
      EXPECT_EQ(seen[0][loc], seen[t][loc]) << "location " << loc;
    }
  }
  // And the table holds exactly one frame per distinct location.
  const Frame* probe = table.intern("concurrent_fn_0", "conc.cc", 0);
  EXPECT_EQ(probe, seen[0][0]);
}

TEST(FrameTable, FoldedNameComputedAtIntern) {
  const Frame* f = FrameTable::instance().intern(
      "thrust::reduce<float>", "t.h", 5);
  EXPECT_EQ(f->folded_function, "thrust::reduce<...>");
}

TEST(Frame, PrettyFormat) {
  const Frame* f =
      FrameTable::instance().intern("cudaFree", "als.cpp", 856);
  EXPECT_EQ(f->pretty(), "cudaFree in als.cpp at line 856");
}

TEST(CallContext, PushPopMaintainsDepth) {
  CallContext& ctx = CallContext::current();
  const std::size_t base = ctx.depth();
  {
    ScopedFrame f1("a", "x.cc", 1);
    EXPECT_EQ(ctx.depth(), base + 1);
    {
      ScopedFrame f2("b", "x.cc", 2);
      EXPECT_EQ(ctx.depth(), base + 2);
    }
    EXPECT_EQ(ctx.depth(), base + 1);
  }
  EXPECT_EQ(ctx.depth(), base);
}

TEST(CallContext, CaptureOrdersOutermostFirst) {
  ScopedFrame f1("outer", "x.cc", 1);
  ScopedFrame f2("inner", "x.cc", 2);
  const StackTrace st = CallContext::current().capture();
  ASSERT_GE(st.depth(), 2u);
  EXPECT_EQ(st.frames()[st.depth() - 2]->function, "outer");
  EXPECT_EQ(st.leaf()->function, "inner");
}

TEST(CallContext, CaptureIntoRespectsMax) {
  ScopedFrame f1("a", "x.cc", 1);
  ScopedFrame f2("b", "x.cc", 2);
  ScopedFrame f3("c", "x.cc", 3);
  const Frame* buf[2];
  const std::size_t n = CallContext::current().capture_into(buf, 2);
  ASSERT_EQ(n, 2u);
  // Innermost frames are kept when truncating.
  EXPECT_EQ(buf[1]->function, "c");
  EXPECT_EQ(buf[0]->function, "b");
}

TEST(StackTrace, ExactEqualityByPointerIdentity) {
  StackTrace a, b;
  {
    ScopedFrame f1("fn", "x.cc", 9);
    a = CallContext::current().capture();
  }
  {
    ScopedFrame f1("fn", "x.cc", 9);
    b = CallContext::current().capture();
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.exact_key(), b.exact_key());
}

TEST(StackTrace, DifferentLinesDifferExactly) {
  StackTrace a, b;
  {
    ScopedFrame f1("fn", "x.cc", 9);
    a = CallContext::current().capture();
  }
  {
    ScopedFrame f1("fn", "x.cc", 10);
    b = CallContext::current().capture();
  }
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.exact_key(), b.exact_key());
}

TEST(StackTrace, FoldedEqualityMergesTemplateInstances) {
  StackTrace a, b;
  {
    ScopedFrame f("storage<float>::free", "t.h", 31);
    a = CallContext::current().capture();
  }
  {
    ScopedFrame f("storage<double>::free", "t.h", 31);
    b = CallContext::current().capture();
  }
  EXPECT_FALSE(a == b);               // exact identity differs
  EXPECT_TRUE(a.folded_equals(b));    // folded identity matches
  EXPECT_EQ(a.folded_key(), b.folded_key());
}

TEST(StackTrace, FoldedInequalityForDifferentFunctions) {
  StackTrace a, b;
  {
    ScopedFrame f("alloc<float>", "t.h", 31);
    a = CallContext::current().capture();
  }
  {
    ScopedFrame f("release<float>", "t.h", 31);
    b = CallContext::current().capture();
  }
  EXPECT_FALSE(a.folded_equals(b));
}

TEST(StackTrace, FoldedEqualsRequiresSameDepth) {
  StackTrace a, b;
  {
    ScopedFrame f1("x", "x.cc", 1);
    a = CallContext::current().capture();
    ScopedFrame f2("x", "x.cc", 1);
    b = CallContext::current().capture();
  }
  EXPECT_FALSE(a.folded_equals(b));
}

TEST(StackTrace, EmptyStack) {
  StackTrace st;
  EXPECT_TRUE(st.empty());
  EXPECT_EQ(st.leaf(), nullptr);
  EXPECT_EQ(st.depth(), 0u);
}

TEST(StackTrace, PrettyListsInnermostFirst) {
  StackTrace st;
  {
    ScopedFrame f1("outer", "o.cc", 1);
    ScopedFrame f2("inner", "i.cc", 2);
    st = CallContext::current().capture();
  }
  const std::string text = st.pretty();
  const auto inner_pos = text.find("inner");
  const auto outer_pos = text.find("outer");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);
}

TEST(CallContext, ClearEmpties) {
  // Use a scope guard-free push so we can clear safely.
  CallContext& ctx = CallContext::current();
  const Frame* f = FrameTable::instance().intern("tmp", "t.cc", 1);
  ctx.push(f);
  EXPECT_GE(ctx.depth(), 1u);
  ctx.clear();
  EXPECT_EQ(ctx.depth(), 0u);
}

}  // namespace
}  // namespace diog::trace
