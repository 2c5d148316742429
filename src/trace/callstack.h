// Logical call stacks for the simulated application stack.
//
// The real Diogenes walks the native stack with Dyninst's stackwalker and
// resolves frames against debug info ("cudaFree in als.cpp at line 856").
// In this reproduction, workloads declare their frames with RAII scope
// markers; the tool captures the declared stack at instrumentation
// points. Frames are interned so that:
//   * a stack is a small vector of stable `const Frame*` — capturing one
//     is an allocation-free pointer copy, legal inside the page-tracer's
//     SIGSEGV handler;
//   * "matched by instruction address" (single-point grouping) maps to
//     pointer identity, and "matched by function name" (folded-function
//     grouping) maps to comparing folded name strings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"

namespace diog::trace {

struct Frame {
  std::string function;  // source-style, possibly templated name
  std::string file;
  int line = 0;

  // Computed once at intern time.
  std::string folded_function;  // template params stripped (§3.5.2)

  [[nodiscard]] std::string pretty() const;  // "function in file at line N"
};

// Process-wide intern pool. Frames are never freed: a run produces a
// bounded set of distinct source locations, and stable addresses are the
// point of interning.
//
// Thread-safety: intern() and size() are fully thread-safe. The pool is
// read-mostly, so lookups of already-known frames take a shared lock
// (concurrent readers never serialize against each other); only a new
// frame takes the exclusive lock, with a re-check for a racing insert.
// Frames live in a deque so returned pointers stay stable forever.
// Concurrent intern() calls for the same (function, file, line) triple
// return the same Frame*. Run readers and instrumentation hooks on
// application threads may therefore intern without external locking.
class FrameTable {
 public:
  static FrameTable& instance();

  const Frame* intern(std::string_view function, std::string_view file,
                      int line);

  [[nodiscard]] std::size_t size() const;

 private:
  FrameTable() = default;
  struct Impl;
  Impl& impl();
};

// A captured stack: outermost frame first, call site (innermost) last.
class StackTrace {
 public:
  StackTrace() = default;
  explicit StackTrace(std::vector<const Frame*> frames)
      : frames_(std::move(frames)) {}

  [[nodiscard]] const std::vector<const Frame*>& frames() const {
    return frames_;
  }
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  [[nodiscard]] std::size_t depth() const { return frames_.size(); }
  [[nodiscard]] const Frame* leaf() const {
    return frames_.empty() ? nullptr : frames_.back();
  }

  // Identity for the single-point grouping: all frame pointers equal
  // (interning makes pointer equality equivalent to exact source
  // location equality — the analog of matching instruction addresses).
  bool operator==(const StackTrace& other) const {
    return frames_ == other.frames_;
  }

  // Stable hash over frame identities for grouping maps.
  [[nodiscard]] std::uint64_t exact_key() const;

  // Identity for the folded-function grouping: frames match when their
  // template-folded function names match.
  [[nodiscard]] std::uint64_t folded_key() const;
  [[nodiscard]] bool folded_equals(const StackTrace& other) const;

  [[nodiscard]] std::string pretty(std::string_view indent = "  ") const;

  [[nodiscard]] json::Value to_json() const;

 private:
  std::vector<const Frame*> frames_;
};

// Thread-local stack of active frames, maintained by ScopedFrame.
class CallContext {
 public:
  static CallContext& current();

  void push(const Frame* f);
  void pop();
  [[nodiscard]] StackTrace capture() const;
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }

  // Async-signal-safe snapshot: copies at most `max` frame pointers into
  // `out` without allocating. Returns the number copied.
  std::size_t capture_into(const Frame** out, std::size_t max) const;

  void clear();  // between independent simulated runs

 private:
  std::vector<const Frame*> stack_;
};

class ScopedFrame {
 public:
  ScopedFrame(std::string_view function, std::string_view file, int line);
  ~ScopedFrame();
  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;
};

}  // namespace diog::trace

// Declare the current scope as an application frame. Workloads use this
// to mirror the paper's source attributions, e.g.
//   DIOG_APP_FRAME("run_als", "als.cpp", 700);
#define DIOG_FRAME_CONCAT_INNER(a, b) a##b
#define DIOG_FRAME_CONCAT(a, b) DIOG_FRAME_CONCAT_INNER(a, b)
#define DIOG_APP_FRAME(fn, file, line)                       \
  ::diog::trace::ScopedFrame DIOG_FRAME_CONCAT(diog_frame_, __LINE__) { \
    (fn), (file), (line)                                     \
  }
