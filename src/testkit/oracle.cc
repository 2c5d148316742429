#include "testkit/oracle.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>

#include <map>

#include <cctype>

#include "archive/archive.h"
#include "core/benefit.h"
#include "core/groupings.h"
#include "core/report.h"
#include "eventstore/live_writer.h"
#include "eventstore/run_io.h"
#include "explore/service.h"
#include "hub/protocol.h"
#include "hub/session.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "support/error.h"
#include "support/input_file.h"

namespace diog::testkit {

namespace {

namespace fs = std::filesystem;

std::string ns_str(Duration d) { return std::to_string(d.count()) + "ns"; }

struct Checker {
  OracleReport& rep;
  void operator()(bool cond, const std::string& what) const {
    ++rep.checks;
    if (!cond) rep.failures.push_back(what);
  }
};

std::string slurp(const std::string& path) {
  std::optional<std::string> bytes = support::read_file(path);
  DIOG_CHECK(bytes.has_value(), "oracle cannot read back " + path);
  return std::move(*bytes);
}

// Restores the programmatic thread override on every exit path, so an
// invariant failure cannot leak a pinned thread count into the caller.
struct ThreadOverrideGuard {
  std::size_t saved = par::threads_override();
  ~ThreadOverrideGuard() { par::set_threads(saved); }
};

}  // namespace

void reshard_run_to_file(const evstore::TraceRun& src,
                         const std::string& path, std::size_t period) {
  DIOG_CHECK(period > 0, "reshard period must be positive");
  evstore::TraceRun dst;
  dst.meta = src.meta;
  evstore::LiveRunWriter writer(
      path, evstore::LiveRunWriter::Options{.fsync_checkpoints = false,
                                            .footer_wall_ms = 0});
  const evstore::EventStore& s = *src.store;
  for (std::uint64_t i = 0; i < s.size(); ++i) {
    evstore::Event e = s.event(i);
    // Re-intern through the destination's dictionaries: ids may differ,
    // content may not.
    e.stack = dst.store->intern_stack(s.stack_trace(e.stack));
    e.aux_stack = dst.store->intern_stack(s.stack_trace(e.aux_stack));
    e.name = e.name == evstore::kNoName
                 ? evstore::kNoName
                 : dst.store->intern_name(s.name(e.name));
    dst.store->append(e);
    if ((i + 1) % period == 0) writer.checkpoint(dst);
  }
  writer.finish(dst);
}

OracleReport check_analysis_invariants(const evstore::TraceRun& run,
                                       const OracleOptions& opts) {
  DIOG_CHECK(!opts.work_dir.empty(), "oracle needs a work_dir");
  fs::create_directories(opts.work_dir);

  OracleReport rep;
  const Checker check{rep};

  const ffm::AnalysisResult a = ffm::run_analysis(run, opts.cfg);

  // --- Bounds ---------------------------------------------------------------
  const Duration wall =
      std::max({a.run.meta.s1_exec, a.run.meta.s2_exec, a.run.meta.s3_exec,
                a.run.meta.s4_exec});
  Duration per_node_sum{0};
  for (const ffm::NodeBenefit& nb : a.benefit.per_node) {
    check(nb.benefit.count() >= 0,
          "negative benefit " + ns_str(nb.benefit) + " at node " +
              std::to_string(nb.node));
    check(nb.benefit <= wall,
          "benefit " + ns_str(nb.benefit) + " at node " +
              std::to_string(nb.node) + " exceeds wall time " + ns_str(wall));
    per_node_sum += nb.benefit;
  }
  check(a.benefit.total == per_node_sum,
        "total " + ns_str(a.benefit.total) + " != sum of per-node benefits " +
            ns_str(per_node_sum));
  check(a.benefit.total ==
            a.benefit.sync_benefit + a.benefit.transfer_benefit,
        "total != sync_benefit + transfer_benefit");
  check(a.benefit.total <= wall,
        "total benefit " + ns_str(a.benefit.total) + " exceeds wall time " +
            ns_str(wall));
  for (const auto* groups : {&a.single_points, &a.folds, &a.sequences}) {
    for (const ffm::Group& g : *groups) {
      check(g.benefit.count() >= 0 && g.benefit <= wall,
            "group '" + g.title + "' benefit " + ns_str(g.benefit) +
                " outside [0, wall]");
    }
  }

  // --- Monotonicity: prefix subsets of the problem nodes --------------------
  std::vector<std::size_t> problems;
  problems.reserve(a.benefit.per_node.size());
  for (const ffm::NodeBenefit& nb : a.benefit.per_node) {
    problems.push_back(nb.node);
  }
  if (!problems.empty()) {
    Duration prev{0};
    const std::size_t steps = std::max<std::size_t>(1, opts.prefix_steps);
    for (std::size_t s = 1; s <= steps; ++s) {
      const std::size_t k =
          std::max<std::size_t>(1, problems.size() * s / steps);
      const ffm::BenefitReport sub = ffm::expected_benefit_subset(
          a.graph, std::span<const std::size_t>(problems.data(), k));
      check(sub.total >= prev,
            "prefix-subset benefit decreased at k=" + std::to_string(k) +
                ": " + ns_str(sub.total) + " < " + ns_str(prev));
      check(sub.total <= a.benefit.total,
            "prefix-subset benefit at k=" + std::to_string(k) +
                " exceeds the full total");
      prev = sub.total;
    }
    const ffm::BenefitReport full = ffm::expected_benefit_subset(
        a.graph,
        std::span<const std::size_t>(problems.data(), problems.size()));
    check(full.total == a.benefit.total,
          "subset over ALL problem nodes (" + ns_str(full.total) +
              ") != expected_benefit total (" + ns_str(a.benefit.total) + ")");
  }

  // --- Monotonicity: sequence subsequences ----------------------------------
  for (const ffm::Group& seq : a.sequences) {
    // Subsequence bounds are 1-based DISPLAY ordinals (one entry may
    // cover several graph nodes, e.g. a transfer+sync pair), so the
    // ladder must run over sequence_entries, not seq.nodes.
    const std::size_t m = ffm::sequence_entries(a.graph, seq).size();
    if (m < 2) continue;
    Duration prev{0};
    for (const std::size_t k : {std::size_t{1}, m / 2, m}) {
      if (k < 1 || k > m) continue;
      const ffm::Group sub = ffm::subsequence(a.graph, seq, 1, k);
      check(sub.benefit >= prev,
            "subsequence [1.." + std::to_string(k) + "] of '" + seq.title +
                "' shrank: " + ns_str(sub.benefit) + " < " + ns_str(prev));
      check(sub.benefit <= seq.benefit,
            "subsequence [1.." + std::to_string(k) + "] of '" + seq.title +
                "' exceeds the sequence benefit");
      if (k == m) {
        check(sub.benefit == seq.benefit,
              "full-width subsequence of '" + seq.title +
                  "' != the sequence benefit");
      }
      prev = sub.benefit;
    }
  }

  // --- Persistence: save+reopen and resharding invariance -------------------
  const std::string expected = ffm::export_json(a).dump();
  const std::string oneshot =
      (fs::path(opts.work_dir) / "oracle-oneshot.dgtrace").string();
  const std::string resharded =
      (fs::path(opts.work_dir) / "oracle-resharded.dgtrace").string();

  evstore::save_run(oneshot, run);
  reshard_run_to_file(run, resharded, opts.reshard_period);

  for (const auto& [path, label] :
       {std::pair{oneshot, "saved+reopened"},
        std::pair{resharded, "resharded"}}) {
    evstore::RunFileInfo info;
    const evstore::TraceRun reread =
        evstore::open_run(path, evstore::ReadMode::kAuto, &info);
    check(info.clean && info.finalized,
          std::string(label) + " run file not clean+finalized");
    check(info.events == run.store->size(),
          std::string(label) + " run file lost events: " +
              std::to_string(info.events) + " != " +
              std::to_string(run.store->size()));
    const ffm::AnalysisResult b = ffm::run_analysis(reread, opts.cfg);
    check(ffm::export_json(b).dump() == expected,
          std::string(label) +
              " analysis differs from the in-memory analysis");
  }
  {
    evstore::RunFileInfo i1;
    (void)evstore::open_run(resharded, evstore::ReadMode::kAuto, &i1);
    check(i1.chunks >= 1, "resharded file has no chunks");
    if (run.store->size() >= 2 * opts.reshard_period) {
      check(i1.chunks >= 2,
            "resharding produced a single chunk for " +
                std::to_string(run.store->size()) + " events");
    }
  }

  // --- Thread-count metamorphism --------------------------------------------
  // The parallel subsystem's hard contract: the analysis export and the
  // one-shot saved file are the same BYTES at every thread count. The
  // footer wall clock is pinned so the only legal nondeterminism source
  // is removed; everything else byte-differing is a real ordering bug.
  if (!opts.thread_counts.empty()) {
    ThreadOverrideGuard guard;
    std::string ref_bytes;
    std::size_t ref_tc = 0;
    // Explorer endpoints over the saved run, captured at the first
    // thread count and required byte-identical at every other one. The
    // same relation the export obeys, extended to the served JSON.
    const std::vector<std::string> endpoints = {
        "/api/timeline?run=oracle-oneshot&px=512",
        "/api/timeline?run=oracle-oneshot&px=64&tracks=op",
        "/api/flame?run=oracle-oneshot",
        "/api/findings?run=oracle-oneshot",
        "/api/syncsites?run=oracle-oneshot",
    };
    std::map<std::string, std::string> ref_bodies;
    for (const std::size_t tc : opts.thread_counts) {
      par::set_threads(tc);
      const ffm::AnalysisResult t = ffm::run_analysis(run, opts.cfg);
      check(ffm::export_json(t).dump() == expected,
            "analysis at threads=" + std::to_string(tc) +
                " differs from the ambient-threads analysis");

      const std::string path =
          (fs::path(opts.work_dir) /
           ("oracle-threads-" + std::to_string(tc) + ".dgtrace"))
              .string();
      evstore::save_run(path, run,
                        evstore::SaveOptions{.footer_wall_ms = 0});
      const std::string bytes = slurp(path);
      if (ref_bytes.empty()) {
        ref_bytes = bytes;
        ref_tc = tc;
      } else {
        check(bytes == ref_bytes,
              "saved run bytes at threads=" + std::to_string(tc) +
                  " differ from threads=" + std::to_string(ref_tc));
      }

      evstore::RunFileInfo info;
      const evstore::TraceRun reread =
          evstore::open_run(path, evstore::ReadMode::kAuto, &info);
      check(info.clean && info.finalized,
            "threads=" + std::to_string(tc) +
                " run file not clean+finalized");
      const ffm::AnalysisResult b = ffm::run_analysis(reread, opts.cfg);
      check(ffm::export_json(b).dump() == expected,
            "reopened analysis at threads=" + std::to_string(tc) +
                " differs from the in-memory analysis");

      if (opts.check_archive) {
        // Fleet surface at this thread count: a fresh archive under a
        // pinned ingest clock, fed the pinned save plus a resharded
        // variant (different bytes, same events — a second digest of
        // the same workload, which gives the sentinel a baseline).
        // One shared root, torn down and rebuilt from scratch at every
        // thread count: the entire archive (objects, index, and the
        // bodies served over it) must be reproducible byte-for-byte.
        const std::string arch_root =
            (fs::path(opts.work_dir) / "oracle-archive").string();
        std::error_code ec;
        fs::remove_all(arch_root, ec);
        const std::string alt =
            (fs::path(opts.work_dir) / "oracle-alt.dgtrace").string();
        reshard_run_to_file(run, alt, 1009);
        archive::ArchiveOptions aopts;
        aopts.root = arch_root;
        aopts.config = opts.cfg;
        aopts.ingest_wall_ms = 0;
        archive::Archive ar(std::move(aopts));
        bool added = false;
        try {
          (void)ar.add(path);
          added = true;
          (void)ar.add(alt);
        } catch (const Error&) {
          // Deterministic rejection (e.g. a fuzzed run the analysis
          // refuses) — the endpoints below still must answer the same
          // bytes at every thread count.
        }

        if (added) {
          // Hub-ingestion relation at this thread count: the pinned
          // save streamed through a hub Session spools byte-identical
          // bytes, and archiving the spool deduplicates against the
          // locally-added object — wire ingestion and local save are
          // the same archive operation.
          const std::string spool =
              (fs::path(opts.work_dir) /
               ("oracle-hub-spool-" + std::to_string(tc) + ".dgtrace"))
                  .string();
          hub::SessionOptions hopts;
          hopts.spool_path = spool;
          hopts.fsync_spool = false;
          hub::Session session(std::move(hopts));
          const std::string hello = hub::encode_hello("oracle");
          session.feed(
              reinterpret_cast<const unsigned char*>(hello.data()),
              hello.size());
          constexpr std::size_t kStep = 4093;
          for (std::size_t off = 0; off < bytes.size(); off += kStep) {
            session.feed(
                reinterpret_cast<const unsigned char*>(bytes.data()) + off,
                std::min(kStep, bytes.size() - off));
          }
          session.end_of_stream();
          check(session.finalized(),
                "hub session did not finalize the pinned save at threads=" +
                    std::to_string(tc));
          check(slurp(spool) == bytes,
                "hub spool bytes differ from the pinned save at threads=" +
                    std::to_string(tc));
          const auto re = ar.add(spool);
          check(re.deduplicated,
                "hub-ingested spool did not deduplicate against the local "
                "add at threads=" +
                    std::to_string(tc));
        }

        explore::ServiceOptions so;
        so.root = oneshot;
        so.config = opts.cfg;
        so.archive_root = arch_root;
        explore::Service svc(so);
        std::vector<std::string> fleet = {"/api/regressions", "/metrics"};
        const std::string& w = run.meta.workload;
        const bool url_safe =
            !w.empty() &&
            std::all_of(w.begin(), w.end(), [](unsigned char c) {
              return std::isalnum(c) != 0 || c == '_' || c == '-' ||
                     c == '.';
            });
        if (url_safe) {
          fleet.insert(fleet.begin(),
                       "/api/history?workload=" + w + "&px=64");
        }
        for (const std::string& target : fleet) {
          if (target == "/metrics") {
            // The scrape reflects whatever the registry accumulated, so
            // it is only comparable from a known state: reset, then let
            // the request itself be the single counted event.
            obs::Telemetry::global().metrics().reset();
          }
          explore::HttpRequest req;
          DIOG_CHECK(explore::parse_request_line(
                         "GET " + target + " HTTP/1.1", req),
                     "oracle fleet target unparsable: " + target);
          const std::string body = svc.handle(req).body;
          auto [it, inserted] =
              ref_bodies.emplace("fleet:" + target, body);
          check(inserted || it->second == body,
                "fleet endpoint " + target + " at threads=" +
                    std::to_string(tc) + " differs from threads=" +
                    std::to_string(ref_tc == 0 ? opts.thread_counts.front()
                                               : ref_tc));
        }
      }

      if (opts.check_endpoints) {
        // A fresh Service per thread count, serving the one-shot file,
        // so every aggregation and the findings analysis genuinely
        // re-run under this thread count.
        explore::ServiceOptions so;
        so.root = oneshot;
        so.config = opts.cfg;
        explore::Service svc(so);
        for (const std::string& target : endpoints) {
          explore::HttpRequest req;
          DIOG_CHECK(explore::parse_request_line(
                         "GET " + target + " HTTP/1.1", req),
                     "oracle endpoint target unparsable: " + target);
          const std::string body = svc.handle(req).body;
          auto [it, inserted] = ref_bodies.emplace(target, body);
          check(inserted || it->second == body,
                "endpoint " + target + " at threads=" +
                    std::to_string(tc) + " differs from threads=" +
                    std::to_string(ref_tc == 0 ? opts.thread_counts.front()
                                               : ref_tc));
        }
      }
    }
  }

  return rep;
}

std::string OracleReport::render() const {
  std::ostringstream os;
  os << checks << " invariant checks, " << failures.size() << " failures";
  for (const std::string& f : failures) os << "\n  FAIL: " << f;
  return os.str();
}

}  // namespace diog::testkit
