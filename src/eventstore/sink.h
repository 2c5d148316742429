// Pluggable checkpoint targets for the flight recorder.
//
// A CheckpointSink is where the recorder's checkpoints go: the run file
// (LiveRunWriter, live_writer.h) or the trace hub's TCP wire (HubSink,
// src/hub/client.h). Both are I/O shells over one RunEncoder
// (chunk_codec.h), so they ship the same bytes. The factory indirection
// exists purely for layering: core cannot link the hub (the hub links
// archive, which links core), so the hub registers its factory at
// process startup and core resolves `--sink <url>` through it without
// naming the module.
#pragma once

#include <memory>
#include <string>

#include "eventstore/run.h"

namespace diog::evstore {

class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  // Called from the store's appending thread. checkpoint() ships
  // everything new since the previous one (skipped when nothing changed
  // and `force` is false); finish() seals the stream (idempotent).
  virtual void checkpoint(const TraceRun& run, bool force) = 0;
  virtual void finish(const TraceRun& run) = 0;
};

using SinkFactory = std::unique_ptr<CheckpointSink> (*)(
    const std::string& url, const std::string& workload);

// Registers the process-wide factory behind make_sink. Last call wins.
void set_sink_factory(SinkFactory factory);

// Resolves a --sink URL. Throws diog::Error when no factory was
// registered or when the factory rejects the URL.
std::unique_ptr<CheckpointSink> make_sink(const std::string& url,
                                          const std::string& workload);

}  // namespace diog::evstore
