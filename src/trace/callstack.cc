#include "trace/callstack.h"

#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "support/demangle.h"
#include "support/error.h"

namespace diog::trace {

std::string Frame::pretty() const {
  return function + " in " + file + " at line " + std::to_string(line);
}

struct FrameTable::Impl {
  // Read-mostly: after warm-up nearly every intern() is a lookup of an
  // already-known frame, so readers take the lock shared and scale with
  // the analysis thread pool; only a genuinely new frame upgrades to
  // the exclusive lock.
  std::shared_mutex mu;
  // deque: stable element addresses across growth.
  std::deque<Frame> frames;
  std::unordered_map<std::string, const Frame*> index;
};

FrameTable& FrameTable::instance() {
  static FrameTable table;
  return table;
}

FrameTable::Impl& FrameTable::impl() {
  static Impl impl;
  return impl;
}

const Frame* FrameTable::intern(std::string_view function,
                                std::string_view file, int line) {
  Impl& im = impl();
  std::string key;
  key.reserve(function.size() + file.size() + 16);
  key.append(function);
  key += '\x1f';
  key.append(file);
  key += '\x1f';
  key += std::to_string(line);

  {
    std::shared_lock<std::shared_mutex> lock(im.mu);
    const auto it = im.index.find(key);
    if (it != im.index.end()) return it->second;
  }

  std::unique_lock<std::shared_mutex> lock(im.mu);
  // Re-check: another thread may have interned the same frame between
  // the shared probe and this exclusive acquisition.
  const auto it = im.index.find(key);
  if (it != im.index.end()) return it->second;

  Frame f;
  f.function = std::string(function);
  f.file = std::string(file);
  f.line = line;
  f.folded_function = base_function_name(function);
  im.frames.push_back(std::move(f));
  const Frame* p = &im.frames.back();
  im.index.emplace(std::move(key), p);
  return p;
}

std::size_t FrameTable::size() const {
  Impl& im = const_cast<FrameTable*>(this)->impl();
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return im.frames.size();
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t hash_string(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t StackTrace::exact_key() const {
  std::uint64_t h = 0x12345678abcdef01ULL;
  for (const Frame* f : frames_) {
    h = mix(h, reinterpret_cast<std::uintptr_t>(f));
  }
  return h;
}

std::uint64_t StackTrace::folded_key() const {
  std::uint64_t h = 0xfedcba9876543210ULL;
  for (const Frame* f : frames_) {
    h = mix(h, hash_string(f->folded_function));
  }
  return h;
}

bool StackTrace::folded_equals(const StackTrace& other) const {
  if (frames_.size() != other.frames_.size()) return false;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i]->folded_function != other.frames_[i]->folded_function) {
      return false;
    }
  }
  return true;
}

std::string StackTrace::pretty(std::string_view indent) const {
  std::string out;
  // Innermost frame first, as profilers conventionally print.
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    out += indent;
    out += (*it)->pretty();
    out += '\n';
  }
  return out;
}

json::Value StackTrace::to_json() const {
  json::Array arr;
  arr.reserve(frames_.size());
  for (const Frame* f : frames_) {
    json::Object o;
    o["function"] = f->function;
    o["file"] = f->file;
    o["line"] = f->line;
    arr.emplace_back(std::move(o));
  }
  return json::Value(std::move(arr));
}

CallContext& CallContext::current() {
  thread_local CallContext ctx;
  return ctx;
}

void CallContext::push(const Frame* f) { stack_.push_back(f); }

void CallContext::pop() {
  DIOG_CHECK(!stack_.empty(), "CallContext::pop on empty stack");
  stack_.pop_back();
}

StackTrace CallContext::capture() const { return StackTrace(stack_); }

std::size_t CallContext::capture_into(const Frame** out,
                                      std::size_t max) const {
  const std::size_t n = stack_.size() < max ? stack_.size() : max;
  // When the stack is deeper than `max`, keep the innermost frames: they
  // carry the call site the analysis attributes to.
  const std::size_t start = stack_.size() - n;
  for (std::size_t i = 0; i < n; ++i) out[i] = stack_[start + i];
  return n;
}

void CallContext::clear() { stack_.clear(); }

ScopedFrame::ScopedFrame(std::string_view function, std::string_view file,
                         int line) {
  CallContext::current().push(
      FrameTable::instance().intern(function, file, line));
}

ScopedFrame::~ScopedFrame() { CallContext::current().pop(); }

}  // namespace diog::trace
