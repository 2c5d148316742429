#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "memtrace/page_tracer.h"
#include "support/error.h"

namespace diog::memtrace {
namespace {

// Page-aligned scratch buffer for protection tests.
struct AlignedBuf {
  explicit AlignedBuf(std::size_t pages = 1) {
    const auto ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    size = ps * pages;
    ptr = static_cast<volatile char*>(std::aligned_alloc(ps, size));
    std::memset(const_cast<char*>(ptr), 0, size);
  }
  ~AlignedBuf() { std::free(const_cast<char*>(ptr)); }
  volatile char* ptr;
  std::size_t size;
};

class PageTracerTest : public ::testing::Test {
 protected:
  PageTracerTest() : tracer_(PageTracer::instance()) {
    if (tracer_.armed()) tracer_.disarm();
    tracer_.unregister_all();
    tracer_.clear_accesses();
  }
  ~PageTracerTest() override {
    if (tracer_.armed()) tracer_.disarm();
    tracer_.unregister_all();
    tracer_.clear_accesses();
  }
  PageTracer& tracer_;
};

TEST_F(PageTracerTest, FirstReadIsRecordedAndExecutionContinues) {
  AlignedBuf buf;
  const_cast<char*>(buf.ptr)[10] = 42;
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 777);
  tracer_.arm();
  const char v = buf.ptr[10];  // faults, records, retries
  tracer_.disarm();
  EXPECT_EQ(v, 42);
  ASSERT_EQ(tracer_.accesses().size(), 1u);
  const AccessRecord& rec = tracer_.accesses()[0];
  EXPECT_EQ(rec.user_tag, 777u);
  EXPECT_EQ(rec.fault_address, buf.ptr + 10);
#if defined(__x86_64__)
  EXPECT_FALSE(rec.is_write);
  EXPECT_NE(rec.instruction_pointer, 0u);
#endif
}

TEST_F(PageTracerTest, FirstWriteIsRecordedAsWrite) {
  AlignedBuf buf;
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  const_cast<char*>(buf.ptr)[5] = 9;
  tracer_.disarm();
  ASSERT_EQ(tracer_.accesses().size(), 1u);
#if defined(__x86_64__)
  EXPECT_TRUE(tracer_.accesses()[0].is_write);
#endif
  EXPECT_EQ(const_cast<char*>(buf.ptr)[5], 9);
}

TEST_F(PageTracerTest, OnlyFirstAccessPerArmRecorded) {
  AlignedBuf buf;
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  (void)buf.ptr[0];
  (void)buf.ptr[1];
  const_cast<char*>(buf.ptr)[2] = 1;
  tracer_.disarm();
  EXPECT_EQ(tracer_.accesses().size(), 1u);
}

TEST_F(PageTracerTest, RearmCatchesNextAccess) {
  AlignedBuf buf;
  const RangeId id =
      tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  (void)buf.ptr[0];
  tracer_.disarm();
  tracer_.arm();
  (void)buf.ptr[0];
  tracer_.disarm();
  EXPECT_EQ(tracer_.accesses().size(), 2u);
  EXPECT_EQ(tracer_.accesses()[0].range, id);
  EXPECT_EQ(tracer_.accesses()[1].range, id);
}

TEST_F(PageTracerTest, MultipleRangesRecordIndependently) {
  AlignedBuf a, b;
  const RangeId ra =
      tracer_.register_range(const_cast<char*>(a.ptr), a.size, 100);
  const RangeId rb =
      tracer_.register_range(const_cast<char*>(b.ptr), b.size, 200);
  tracer_.arm();
  (void)b.ptr[0];
  (void)a.ptr[0];
  tracer_.disarm();
  ASSERT_EQ(tracer_.accesses().size(), 2u);
  EXPECT_EQ(tracer_.accesses()[0].range, rb);
  EXPECT_EQ(tracer_.accesses()[0].user_tag, 200u);
  EXPECT_EQ(tracer_.accesses()[1].range, ra);
  (void)rb;
}

TEST_F(PageTracerTest, UnprotectedRangeNotRecorded) {
  AlignedBuf a, b;
  tracer_.register_range(const_cast<char*>(a.ptr), a.size, 1);
  tracer_.arm();
  (void)b.ptr[0];  // not registered: no fault, no record
  tracer_.disarm();
  EXPECT_TRUE(tracer_.accesses().empty());
}

TEST_F(PageTracerTest, AccessTimestampIsVirtualTime) {
  AlignedBuf buf;
  VirtualClock clock;
  clock.advance(ms(123));
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  (void)buf.ptr[0];
  tracer_.disarm();
  ASSERT_EQ(tracer_.accesses().size(), 1u);
  EXPECT_EQ(tracer_.accesses()[0].time, ms(123));
}

TEST_F(PageTracerTest, StackCapturedInHandler) {
  AlignedBuf buf;
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  {
    DIOG_APP_FRAME("consume_gpu_data", "app.cc", 99);
    (void)buf.ptr[0];
  }
  tracer_.disarm();
  ASSERT_EQ(tracer_.accesses().size(), 1u);
  const trace::StackTrace st = tracer_.accesses()[0].stack();
  ASSERT_GE(st.depth(), 1u);
  EXPECT_EQ(st.leaf()->function, "consume_gpu_data");
  EXPECT_EQ(st.leaf()->line, 99);
}

TEST_F(PageTracerTest, UnregisterRemovesCoverage) {
  AlignedBuf buf;
  const RangeId id =
      tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  EXPECT_TRUE(tracer_.covers(const_cast<char*>(buf.ptr)));
  tracer_.unregister_range(id);
  EXPECT_FALSE(tracer_.covers(const_cast<char*>(buf.ptr)));
  EXPECT_EQ(tracer_.range_count(), 0u);
}

TEST_F(PageTracerTest, MutationWhileArmedIsRejected) {
  AlignedBuf buf;
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  EXPECT_THROW(
      tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 2),
      Error);
  EXPECT_THROW(tracer_.unregister_all(), Error);
  EXPECT_THROW(tracer_.arm(), Error);
  EXPECT_THROW(tracer_.clear_accesses(), Error);
  tracer_.disarm();
}

TEST_F(PageTracerTest, FaultInsideDriverWindowLiftsWithoutRecord) {
  AlignedBuf buf;
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  const TracerStats before = tracer_.stats();
  tracer_.enter_driver();  // a call that touches nothing costs nothing
  tracer_.leave_driver(16);
  EXPECT_EQ(tracer_.stats().protect_calls, before.protect_calls);
  tracer_.enter_driver();
  const_cast<char*>(buf.ptr)[3] = 7;  // the driver's touch: lifted silently
  EXPECT_TRUE(tracer_.accesses().empty());
  EXPECT_EQ(tracer_.stats().driver_lifts, before.driver_lifts + 1);
  tracer_.leave_driver(16);  // re-protects the lifted range only
  EXPECT_EQ(tracer_.stats().protect_calls, before.protect_calls + 2);
  EXPECT_TRUE(tracer_.armed());
  EXPECT_TRUE(tracer_.accesses().empty());
}

TEST_F(PageTracerTest, LeavingDriverWindowRearmsForNextAppTouch) {
  AlignedBuf buf;
  const RangeId id =
      tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 5);
  tracer_.arm();
  tracer_.enter_driver();
  (void)buf.ptr[0];
  tracer_.leave_driver(16);
  (void)buf.ptr[1];  // the app's touch after the window: recorded
  tracer_.disarm();
  ASSERT_EQ(tracer_.accesses().size(), 1u);
  EXPECT_EQ(tracer_.accesses()[0].range, id);
  EXPECT_EQ(tracer_.accesses()[0].fault_address, buf.ptr + 1);
}

TEST_F(PageTracerTest, MutationInsideDriverWindowIsAllowed) {
  AlignedBuf a, b;
  const RangeId ra =
      tracer_.register_range(const_cast<char*>(a.ptr), a.size, 1);
  tracer_.arm();
  (void)a.ptr[0];  // recorded outside a window
  tracer_.enter_driver();
  ASSERT_EQ(tracer_.accesses().size(), 1u);
  tracer_.clear_accesses();
  EXPECT_TRUE(tracer_.accesses().empty());
  tracer_.unregister_range(ra);
  const RangeId rb =
      tracer_.register_range(const_cast<char*>(b.ptr), b.size, 2);
  EXPECT_FALSE(tracer_.covers(const_cast<char*>(a.ptr)));
  tracer_.leave_driver(16);
  EXPECT_TRUE(tracer_.armed());
  (void)a.ptr[0];  // no longer traced
  (void)b.ptr[0];  // registered in the window, protected on leaving it
  tracer_.disarm();
  ASSERT_EQ(tracer_.accesses().size(), 1u);
  EXPECT_EQ(tracer_.accesses()[0].range, rb);
}

TEST_F(PageTracerTest, UnregisterInsideWindowUnprotectsTheRange) {
  AlignedBuf buf;
  const RangeId id =
      tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  tracer_.enter_driver();
  tracer_.unregister_range(id);  // still protected: unprotects first
  tracer_.leave_driver(16);
  EXPECT_FALSE(tracer_.armed());  // nothing left to trace
  const_cast<char*>(buf.ptr)[0] = 1;  // touchable, no fault
  EXPECT_TRUE(tracer_.accesses().empty());
}

TEST_F(PageTracerTest, LiftOverlappingRangesInsideWindow) {
  AlignedBuf a(2), b;
  tracer_.register_range(const_cast<char*>(a.ptr), a.size, 1);
  tracer_.register_range(const_cast<char*>(b.ptr), b.size, 2);
  tracer_.arm();
  EXPECT_THROW(tracer_.lift(const_cast<char*>(a.ptr), 1), Error);
  const std::uint64_t lifts = tracer_.stats().driver_lifts;
  tracer_.enter_driver();
  tracer_.lift(const_cast<char*>(a.ptr) + a.size - 1, 1);  // a's last page
  EXPECT_EQ(tracer_.stats().driver_lifts, lifts + 1);
  (void)a.ptr[0];  // the whole range is lifted: no fault
  EXPECT_EQ(tracer_.stats().driver_lifts, lifts + 1);
  tracer_.leave_driver(16);
  (void)a.ptr[0];
  (void)b.ptr[0];
  tracer_.disarm();
  EXPECT_EQ(tracer_.accesses().size(), 2u);
}

TEST_F(PageTracerTest, UnmappedRangeIsDroppedAndCounted) {
  const auto ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* p = mmap(nullptr, ps, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  tracer_.register_range(p, ps, 1);
  tracer_.arm();
  const std::uint64_t unmapped = tracer_.stats().ranges_unmapped;
  ASSERT_EQ(munmap(p, ps), 0);  // the app unmaps a protected range
  tracer_.disarm();
  EXPECT_EQ(tracer_.range_count(), 0u);
  EXPECT_EQ(tracer_.stats().ranges_unmapped, unmapped + 1);
}

TEST_F(PageTracerTest, InvalidRegistrationRejected) {
  EXPECT_THROW(tracer_.register_range(nullptr, 100, 1), Error);
  AlignedBuf buf;
  EXPECT_THROW(
      tracer_.register_range(const_cast<char*>(buf.ptr), 0, 1), Error);
}

TEST_F(PageTracerTest, MultiPageRangeSingleRecord) {
  AlignedBuf buf(4);
  tracer_.register_range(const_cast<char*>(buf.ptr), buf.size, 1);
  tracer_.arm();
  // Touch the last page first: one record, whole range unprotected.
  (void)buf.ptr[buf.size - 1];
  (void)buf.ptr[0];
  tracer_.disarm();
  EXPECT_EQ(tracer_.accesses().size(), 1u);
  EXPECT_EQ(tracer_.accesses()[0].fault_address, buf.ptr + buf.size - 1);
}

}  // namespace
}  // namespace diog::memtrace
