#include "core/uvm_analysis.h"

#include <algorithm>
#include <map>

#include "gpusim/runtime.h"
#include "support/strings.h"

namespace diog::ffm {

json::Value UvmRangeReport::to_json() const {
  json::Object o;
  o["range_addr"] = static_cast<std::int64_t>(range_addr);
  o["bytes"] = bytes;
  o["to_gpu_migrations"] = to_gpu_migrations;
  o["to_cpu_migrations"] = to_cpu_migrations;
  o["total_stall_ns"] = duration_to_json(total_stall);
  o["avoidable_stall_ns"] = duration_to_json(avoidable_stall);
  o["thrashing"] = thrashing;
  o["fault_stack"] = fault_stack.to_json();
  return json::Value(std::move(o));
}

json::Value UvmAnalysis::to_json() const {
  json::Object o;
  o["exec_time_ns"] = duration_to_json(exec_time);
  o["migration_count"] = migrations.size();
  o["total_stall_ns"] = duration_to_json(total_stall);
  o["estimated_benefit_ns"] = duration_to_json(estimated_benefit);
  json::Array arr;
  for (const UvmRangeReport& r : ranges) arr.push_back(r.to_json());
  o["ranges"] = std::move(arr);
  return json::Value(std::move(o));
}

UvmAnalysis analyze_unified_memory(const Workload& w,
                                   const UvmOptions& opts) {
  UvmAnalysis result;
  gpusim::Runtime rt(w.device);

  hooks::Probe probe;
  probe.exit_cost = opts.probe_cost;
  probe.on_exit = [&](const hooks::HookContext& ctx) {
    UvmMigration m;
    m.range_addr = reinterpret_cast<std::uint64_t>(ctx.info->ptr);
    m.bytes = ctx.info->bytes;
    m.to_gpu = ctx.info->memcpy_kind == hooks::MemcpyKind::kHostToDevice;
    m.stall = ctx.info->sync_wait;
    m.transfer_time = ctx.info->gpu_op_duration;
    m.time = ctx.exit_time;
    m.stack = trace::CallContext::current().capture();
    result.migrations.push_back(std::move(m));
  };
  rt.hooks().attach(hooks::Fn::kInternalUvmMigrate, probe);

  {
    gpusim::RuntimeScope scope(rt);
    w.body();
    result.exec_time = rt.clock().now();
  }

  // Aggregate per range, numbering ranges by their first migration.
  std::map<std::uint64_t, std::size_t> index_of;
  for (const UvmMigration& m : result.migrations) {
    const auto [it, added] =
        index_of.try_emplace(m.range_addr, result.ranges.size());
    if (added) result.ranges.emplace_back().ordinal = it->second + 1;
    UvmRangeReport& r = result.ranges[it->second];
    r.range_addr = m.range_addr;
    r.bytes = m.bytes;
    if (m.to_gpu) {
      // A repeat pull re-pays the bus time on the device's critical
      // path.
      if (r.to_gpu_migrations++ > 0) r.avoidable_stall += m.transfer_time;
    } else {
      r.total_stall += m.stall;
      if (r.to_cpu_migrations++ == 0) {
        r.fault_stack = m.stack;
      } else {
        // A repeat fault re-pays the bus time on the CPU's critical
        // path. The rest of the measured stall is queue drain the next
        // synchronization would have absorbed anyway.
        r.avoidable_stall += m.transfer_time;
      }
    }
  }

  for (UvmRangeReport& r : result.ranges) {
    const std::size_t round_trips =
        std::min(r.to_gpu_migrations, r.to_cpu_migrations);
    r.thrashing = round_trips >= opts.thrash_round_trips;
    result.total_stall += r.total_stall;
    result.estimated_benefit += r.avoidable_stall;
  }
  // Ties keep first-migration order.
  std::stable_sort(result.ranges.begin(), result.ranges.end(),
                   [](const UvmRangeReport& a, const UvmRangeReport& b) {
                     return a.avoidable_stall > b.avoidable_stall;
                   });
  return result;
}

std::string render_uvm(const UvmAnalysis& a) {
  std::string out = "Unified-memory transfer analysis (extension)\n";
  if (a.migrations.empty()) {
    out += "  no managed-memory migrations observed\n";
    return out;
  }
  const double exec = static_cast<double>(a.exec_time.count());
  out += "  migrations: " + std::to_string(a.migrations.size()) +
         ", CPU fault stall: " + format_seconds(a.total_stall) + " (" +
         format_percent(static_cast<double>(a.total_stall.count()) / exec) +
         " of execution)\n";
  out += "  estimated benefit of eliminating repeat round trips: " +
         format_seconds(a.estimated_benefit) + " (" +
         format_percent(static_cast<double>(a.estimated_benefit.count()) /
                        exec) +
         ")\n\n";
  for (const UvmRangeReport& r : a.ranges) {
    out += "  range #" + std::to_string(r.ordinal) + " (" +
           format_bytes(r.bytes) + ")";
    if (r.thrashing) out += "  ** THRASHING **";
    out += "\n    " + std::to_string(r.to_gpu_migrations) + " to-GPU / " +
           std::to_string(r.to_cpu_migrations) +
           " to-CPU migrations, avoidable stall " +
           format_seconds(r.avoidable_stall) + "\n";
    if (const trace::Frame* leaf = r.fault_stack.leaf()) {
      out += "    first CPU fault at " + leaf->pretty() + "\n";
    }
  }
  return out;
}

}  // namespace diog::ffm
