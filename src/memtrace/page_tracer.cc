#include "memtrace/page_tracer.h"

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/error.h"

#if defined(__x86_64__)
#include <ucontext.h>
#endif

namespace diog::memtrace {

namespace {

std::uintptr_t page_floor(std::uintptr_t a) {
  static const std::uintptr_t ps =
      static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  return a / ps * ps;
}

std::uintptr_t page_ceil(std::uintptr_t a) {
  static const std::uintptr_t ps =
      static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  return (a + ps - 1) / ps * ps;
}

struct sigaction g_previous_action;

}  // namespace

trace::StackTrace AccessRecord::stack() const {
  std::vector<const trace::Frame*> fs(frames, frames + depth);
  return trace::StackTrace(std::move(fs));
}

PageTracer::PageTracer() = default;

PageTracer& PageTracer::instance() {
  static PageTracer tracer;
  return tracer;
}

void PageTracer::install_handler() {
  if (handler_installed_) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = reinterpret_cast<void (*)(int, siginfo_t*, void*)>(
      &PageTracer::signal_handler);
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  const int rc = sigaction(SIGSEGV, &sa, &g_previous_action);
  DIOG_CHECK(rc == 0, "sigaction(SIGSEGV) failed");
  handler_installed_ = true;
}

RangeId PageTracer::register_range(void* ptr, std::size_t bytes,
                                   std::uint64_t user_tag) {
  DIOG_CHECK(mutable_now(), "cannot register ranges while armed");
  DIOG_CHECK(ptr != nullptr && bytes > 0, "invalid range");
  install_handler();
  Range r;
  r.id = next_id_++;
  r.begin = page_floor(reinterpret_cast<std::uintptr_t>(ptr));
  r.end = page_ceil(reinterpret_cast<std::uintptr_t>(ptr) + bytes);
  r.user_tag = user_tag;
  r.protected_now = false;
  ranges_.push_back(r);
  return r.id;
}

void PageTracer::unregister_range(RangeId id) {
  DIOG_CHECK(mutable_now(), "cannot unregister ranges while armed");
  std::erase_if(ranges_, [&](Range& r) {
    if (r.id != id) return false;
    if (r.protected_now) (void)set_protection(r, false);
    return true;
  });
}

void PageTracer::unregister_all() {
  DIOG_CHECK(!armed_, "cannot unregister ranges while armed");
  ranges_.clear();
}

std::size_t PageTracer::range_count() const { return ranges_.size(); }

bool PageTracer::set_protection(Range& r, bool protect) {
  void* const p = reinterpret_cast<void*>(r.begin);
  const std::size_t len = r.end - r.begin;
  ++stats_.protect_calls;
  if (mprotect(p, len, protect ? PROT_NONE : PROT_READ | PROT_WRITE) == 0) {
    r.protected_now = protect;
    return true;
  }
  DIOG_CHECK(errno == ENOMEM, protect ? "mprotect(PROT_NONE) failed"
                                      : "mprotect(PROT_READ|PROT_WRITE) failed");
  // The app unmapped (part of) the range. Undo any change to a still
  // mapped prefix; the caller drops the range.
  if (protect) (void)mprotect(p, len, PROT_READ | PROT_WRITE);
  ++stats_.ranges_unmapped;
  return false;
}

void PageTracer::protect_unprotected(std::size_t expected_accesses) {
  // Reserve before protecting: the handler must never allocate.
  if (accesses_.capacity() < accesses_.size() + expected_accesses) {
    accesses_.reserve(accesses_.size() + expected_accesses);
  }
  // Touch the thread-local call context now: its first access registers
  // a thread-exit destructor (__cxa_thread_atexit), which may allocate —
  // forbidden inside the SIGSEGV handler where handle_fault captures it.
  (void)trace::CallContext::current();
  std::erase_if(ranges_, [&](Range& r) {
    return !r.protected_now && !set_protection(r, true);
  });
}

void PageTracer::arm(std::size_t expected_accesses) {
  DIOG_CHECK(!armed_, "already armed");
  protect_unprotected(expected_accesses);
  armed_ = true;
}

void PageTracer::disarm() {
  std::erase_if(ranges_, [&](Range& r) {
    return r.protected_now && !set_protection(r, false);
  });
  armed_ = false;
  in_driver_ = 0;
}

void PageTracer::enter_driver() {
  DIOG_CHECK(!in_driver_, "driver windows do not nest");
  in_driver_ = 1;
}

void PageTracer::leave_driver(std::size_t expected_accesses) {
  DIOG_CHECK(in_driver_, "no driver window to leave");
  if (!ranges_.empty()) protect_unprotected(expected_accesses);
  armed_ = !ranges_.empty();
  in_driver_ = 0;
}

void PageTracer::lift(const void* ptr, std::size_t bytes) {
  DIOG_CHECK(in_driver_, "lift outside a driver window");
  const auto a = reinterpret_cast<std::uintptr_t>(ptr);
  std::erase_if(ranges_, [&](Range& r) {
    if (!r.protected_now || a + bytes <= r.begin || a >= r.end) return false;
    ++stats_.driver_lifts;
    return !set_protection(r, false);
  });
}

void PageTracer::clear_accesses() {
  DIOG_CHECK(mutable_now(), "cannot clear the access log while armed");
  accesses_.clear();
  dropped_ = 0;
}

bool PageTracer::covers(const void* ptr) const {
  const auto a = reinterpret_cast<std::uintptr_t>(ptr);
  for (const Range& r : ranges_) {
    if (a >= r.begin && a < r.end) return true;
  }
  return false;
}

bool PageTracer::handle_fault(void* fault_addr, std::uintptr_t ip,
                              bool is_write) {
  const auto a = reinterpret_cast<std::uintptr_t>(fault_addr);
  for (Range& r : ranges_) {
    if (!r.protected_now || a < r.begin || a >= r.end) continue;

    // Inside a driver window the touch is the driver's: lift silently.
    // Otherwise record the first access, then lift protection on the
    // whole range so subsequent accesses run at full speed — stage 3/4
    // only need the FIRST touch after each synchronization.
    if (in_driver_) {
      ++stats_.driver_lifts;
    } else if (accesses_.size() < accesses_.capacity()) {
      AccessRecord rec;
      rec.range = r.id;
      rec.user_tag = r.user_tag;
      rec.fault_address = fault_addr;
      rec.instruction_pointer = ip;
      rec.time = VirtualClock::signal_safe_now();
      rec.is_write = is_write;
      rec.depth = trace::CallContext::current().capture_into(
          rec.frames, kMaxStackDepth);
      accesses_.push_back(rec);  // size < capacity: no allocation
    } else {
      ++dropped_;
    }

    ++stats_.protect_calls;
    mprotect(reinterpret_cast<void*>(r.begin), r.end - r.begin,
             PROT_READ | PROT_WRITE);
    r.protected_now = false;
    return true;
  }
  return false;
}

void PageTracer::signal_handler(int sig, void* siginfo, void* ucontext) {
  auto* si = static_cast<siginfo_t*>(siginfo);
  std::uintptr_t ip = 0;
  bool is_write = false;
#if defined(__x86_64__)
  auto* uc = static_cast<ucontext_t*>(ucontext);
  ip = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  // x86-64 page-fault error code: bit 1 set = write access.
  is_write = (uc->uc_mcontext.gregs[REG_ERR] & 0x2) != 0;
#else
  (void)ucontext;
#endif

  const int saved_errno = errno;  // the handler's mprotect may set it
  if (PageTracer::instance().handle_fault(si->si_addr, ip, is_write)) {
    errno = saved_errno;
    return;  // protection lifted; the faulting instruction retries
  }

  // Not our fault: restore the previous disposition and re-raise so the
  // process crashes (or the prior handler runs) as it would have.
  sigaction(SIGSEGV, &g_previous_action, nullptr);
  raise(sig);
}

}  // namespace diog::memtrace
