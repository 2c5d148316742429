#include "testkit/fuzz.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eventstore/event_store.h"
#include "eventstore/run_format.h"
#include "eventstore/run_io.h"
#include "eventstore/schema.h"
#include "hub/protocol.h"
#include "hub/session.h"
#include "support/error.h"

namespace diog::testkit {

namespace {

namespace fs = std::filesystem;
namespace fmt = evstore::format;

// Stable per-exec sub-seed so a finding can be replayed (and minimized)
// without re-running the whole campaign up to it.
std::uint64_t exec_seed(std::uint64_t seed, std::uint64_t exec) {
  return seed * 0x9E3779B97F4A7C15ULL + exec * 0xBF58476D1CE4E5B9ULL + 1;
}

// Error messages embed offsets and counts; collapse digit runs so two
// "undersized chunk N" rejections land in one class, not thousands.
std::string error_class(std::string_view msg) {
  std::string cls;
  cls.reserve(msg.size());
  bool in_digits = false;
  for (const char c : msg) {
    if (c >= '0' && c <= '9') {
      if (!in_digits) cls.push_back('#');
      in_digits = true;
    } else {
      cls.push_back(c);
      in_digits = false;
    }
  }
  return cls;
}

// --- run-io target -----------------------------------------------------------

struct OpenOutcome {
  enum Class : int { kClean = 0, kPrefix = 1, kError = 2 };
  int cls = kClean;
  std::uint32_t version = 0;  // 0: the header was never read
  bool finalized = false;
  std::uint64_t events = 0;
  std::uint64_t chunks = 0;
  std::uint64_t dropped = 0;
  std::string error;
};

// What open_run, or one RunFollower poll, made of `path`. diog::Error is
// the contract; anything else escapes to the caller as a finding.
OpenOutcome load_one(const std::string& path, bool follow) {
  OpenOutcome out;
  try {
    evstore::RunFileInfo info;
    std::uint64_t rows = 0;
    if (follow) {
      evstore::RunFollower follower(path);
      (void)follower.poll();
      info = follower.info();
      rows = follower.run().store->size();
    } else {
      rows = evstore::open_run(path, evstore::ReadMode::kAuto, &info)
                 .store->size();
    }
    DIOG_CHECK(rows == info.events, "info.events disagrees with the store");
    out.cls = info.clean ? OpenOutcome::kClean : OpenOutcome::kPrefix;
    out.version = info.format_version;
    out.finalized = info.finalized;
    out.events = info.events;
    out.chunks = info.chunks;
    out.dropped = info.dropped_before_checkpoint;
  } catch (const Error& e) {
    out.cls = OpenOutcome::kError;
    out.error = e.what();
  }
  return out;
}

// The differential oracle: open_run maps the file and decodes chunks in
// parallel, a RunFollower reads it and loads chunk by chunk. Both must
// classify every input alike, except that a file shorter than its
// header is an error to open_run but "not written yet" to a follower.
std::optional<std::string> exec_run_io(const std::string& path,
                                       FuzzStats& stats,
                                       std::set<std::string>& classes) {
  const OpenOutcome a = load_one(path, /*follow=*/false);
  const OpenOutcome b = load_one(path, /*follow=*/true);
  const bool agree =
      b.cls != OpenOutcome::kError && b.version == 0
          ? a.cls == OpenOutcome::kError
          : a.cls == b.cls && a.events == b.events && a.chunks == b.chunks &&
                a.finalized == b.finalized && a.dropped == b.dropped;
  if (!agree) {
    std::ostringstream os;
    os << "open_run/follower divergence: open_run{cls=" << a.cls
       << " events=" << a.events << " chunks=" << a.chunks
       << " err=" << a.error << "} follower{cls=" << b.cls
       << " events=" << b.events << " chunks=" << b.chunks
       << " err=" << b.error << "}";
    return os.str();
  }
  switch (a.cls) {
    case OpenOutcome::kClean:
      ++stats.clean_ok;
      break;
    case OpenOutcome::kPrefix:
      ++stats.clean_prefix;
      break;
    default:
      ++stats.clean_errors;
      classes.insert(error_class(a.error));
      break;
  }
  return std::nullopt;
}

// --- follower target ---------------------------------------------------------

// Reveals `input` to a RunFollower in seeded random increments, with
// occasional adversarial truncation below the consumed prefix or atomic
// replacement of the whole file. The follower must either keep up, stop
// with a diog::Error, or report the discontinuity — serving stale or
// mixed bytes without noticing is the finding.
std::optional<std::string> exec_follower(const Bytes& input,
                                         const fs::path& dir,
                                         std::uint64_t reveal_seed,
                                         FuzzStats& stats,
                                         std::set<std::string>& classes) {
  const fs::path run_path = dir / "follower.dgtrace";
  std::error_code ec;
  fs::remove(run_path, ec);

  evstore::RunFollower follower(run_path.string());
  DIOG_CHECK(follower.poll() == 0, "poll on a missing file must return 0");

  Rng rng(reveal_seed);
  std::ofstream out(run_path, std::ios::binary | std::ios::trunc);
  DIOG_CHECK(out.good(), "fuzz: cannot create follower file");

  const auto chunk_consumed = [&follower]() -> std::uint64_t {
    // bytes_consumed counts the footer, which is legitimately re-read on
    // every poll; only the chunk prefix is "consumed" in the stale sense.
    const evstore::RunFileInfo& info = follower.info();
    return info.bytes_consumed -
           (info.clean ? static_cast<std::uint64_t>(fmt::kFooterBytes) : 0);
  };

  std::size_t revealed = 0;
  while (revealed < input.size()) {
    const auto span = std::max<std::uint64_t>(1, input.size() / 4);
    std::size_t step = 1 + static_cast<std::size_t>(rng.next_below(span));
    step = std::min(step, input.size() - revealed);
    out.write(reinterpret_cast<const char*>(input.data() + revealed),
              static_cast<std::streamsize>(step));
    out.flush();
    DIOG_CHECK(out.good(), "fuzz: follower file write failed");
    revealed += step;

    const bool do_truncate = rng.next_bool(0.04);
    const bool do_replace = !do_truncate && rng.next_bool(0.03);
    try {
      if (do_truncate) {
        out.close();
        const std::uint64_t keep = revealed / 2;
        fs::resize_file(run_path, keep, ec);
        DIOG_CHECK(!ec, "fuzz: cannot truncate follower file");
        const std::uint64_t consumed = chunk_consumed();
        (void)follower.poll();
        if (consumed > keep) {
          return "follower accepted truncation below its consumed prefix";
        }
        return std::nullopt;  // scenario over, contract held
      }
      if (do_replace) {
        out.close();
        const fs::path tmp = dir / "follower.replace.dgtrace";
        write_file(tmp.string(), make_minimal_run(2));
        fs::rename(tmp, run_path, ec);
        DIOG_CHECK(!ec, "fuzz: cannot replace follower file");
        const std::uint64_t consumed = chunk_consumed();
        (void)follower.poll();
        if (consumed > fmt::kHeaderBytes) {
          return "follower accepted mid-follow file replacement";
        }
        return std::nullopt;
      }
      (void)follower.poll();
    } catch (const Error& e) {
      classes.insert(error_class(e.what()));
      ++stats.clean_errors;
      return std::nullopt;
    }
  }

  try {
    (void)follower.poll();
  } catch (const Error& e) {
    classes.insert(error_class(e.what()));
    ++stats.clean_errors;
    return std::nullopt;
  }
  if (follower.info().clean) {
    ++stats.clean_ok;
  } else {
    ++stats.clean_prefix;
  }
  return std::nullopt;
}

// --- hub target --------------------------------------------------------------

// Feeds a (possibly hostile) byte stream through a hub Session in seeded
// random increments, exactly as the daemon's read loop would. The
// contract has two halves: (1) every input either finalizes cleanly or
// raises a classified diog::Error — never UB, never a crash; (2) because
// the session validates frames before spooling them, the spool file must
// itself always be an openable run file (or readable prefix), no matter
// how hostile the wire bytes were.
std::optional<std::string> exec_hub(const Bytes& input, const fs::path& dir,
                                    std::uint64_t reveal_seed,
                                    FuzzStats& stats,
                                    std::set<std::string>& classes) {
  const fs::path spool = dir / "hub-session.dgtrace";
  std::error_code ec;
  fs::remove(spool, ec);

  diog::hub::SessionOptions sopts;
  sopts.spool_path = spool.string();
  sopts.fsync_spool = false;  // throughput; durability is not under test
  diog::hub::Session session(std::move(sopts));

  Rng rng(reveal_seed);
  bool rejected = false;
  try {
    const std::string hello = diog::hub::encode_hello("fuzz");
    session.feed(reinterpret_cast<const unsigned char*>(hello.data()),
                 hello.size());
    std::size_t revealed = 0;
    while (revealed < input.size()) {
      const auto span = std::max<std::uint64_t>(1, input.size() / 4);
      std::size_t step = 1 + static_cast<std::size_t>(rng.next_below(span));
      step = std::min(step, input.size() - revealed);
      session.feed(input.data() + revealed, step);
      revealed += step;
    }
    session.end_of_stream();
  } catch (const Error& e) {
    rejected = true;
    classes.insert(error_class(e.what()));
    ++stats.clean_errors;
  }

  if (!rejected && !session.finalized()) {
    return "hub session ended cleanly without reporting finalized";
  }
  if (fs::exists(spool)) {
    // The spool never holds an unvalidated byte; open_run must agree.
    try {
      evstore::RunFileInfo info;
      const evstore::TraceRun run = evstore::open_run(
          spool.string(), evstore::ReadMode::kAuto, &info);
      (void)run;
      if (!rejected && !(info.clean && info.finalized)) {
        return "hub session finalized but its spool is not a clean "
               "finalized run";
      }
    } catch (const Error& e) {
      return std::string("hub spool unreadable after session: ") + e.what();
    }
  } else if (!rejected) {
    return "hub session finalized without writing a spool";
  }
  if (!rejected) ++stats.clean_ok;
  return std::nullopt;
}

// --- ring target -------------------------------------------------------------

// One randomized mixed-kind append storm against ring retention. The
// oracle is counter exactness: for every kind, resident + dropped must
// equal appended, with no events double-counted or lost.
std::optional<std::string> exec_ring(std::uint64_t seed) {
  Rng rng(seed);
  evstore::EventStore store;
  evstore::RetentionPolicy pol;
  if (rng.next_bool()) {
    pol.max_events = 1 + rng.next_below(3 * evstore::kSegmentRows);
  } else {
    pol.max_bytes = (1u << 16) + rng.next_below(16u << 20);
  }
  store.set_retention(pol);

  const std::uint64_t total =
      1 + rng.next_below(3 * evstore::kSegmentRows + 4096);
  std::array<std::uint64_t, evstore::kEventKindCount> appended{};
  for (std::uint64_t i = 0; i < total; ++i) {
    evstore::Event e;
    const auto k =
        static_cast<std::size_t>(rng.next_below(evstore::kEventKindCount));
    e.kind = static_cast<evstore::EventKind>(k);
    e.op_index = i;
    e.t_start = static_cast<std::int64_t>(i);
    e.t_end = e.t_start + 1;
    store.append(e);
    ++appended[k];
  }

  const auto fail = [&](const std::string& what) {
    std::ostringstream os;
    os << "ring counter violation (seed " << seed << ", total " << total
       << "): " << what;
    return os.str();
  };
  if (store.size() + store.dropped_events() != total) {
    return fail("size + dropped != total appended");
  }
  if (store.total_appended() != total) {
    return fail("total_appended != total");
  }

  std::array<std::uint64_t, evstore::kEventKindCount> resident{};
  for (std::uint64_t i = 0; i < store.size(); ++i) {
    ++resident[static_cast<std::size_t>(store.event(i).kind)];
  }
  std::uint64_t dropped_sum = 0;
  for (std::size_t k = 0; k < evstore::kEventKindCount; ++k) {
    const auto kind = static_cast<evstore::EventKind>(k);
    if (store.count_of(kind) != appended[k]) {
      return fail("count_of(" + std::to_string(k) + ") != appended");
    }
    if (resident[k] + store.dropped_of(kind) != appended[k]) {
      return fail("resident + dropped_of(" + std::to_string(k) +
                  ") != appended");
    }
    dropped_sum += store.dropped_of(kind);
  }
  if (dropped_sum != store.dropped_events()) {
    return fail("sum of per-kind drops != dropped_events");
  }
  return std::nullopt;
}

// --- Seeds and corpus --------------------------------------------------------

std::vector<Bytes> builtin_seeds() {
  std::vector<Bytes> seeds;
  seeds.push_back(make_minimal_run(0));
  seeds.push_back(make_minimal_run(16));
  {
    // Two chunks with contiguous event ranges and a final footer.
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 8;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.first_event_index = 8;
    c2.event_count = 12;
    append(b, make_chunk(c2));
    append(b, make_footer(/*final=*/true, 20, 2));
    seeds.push_back(std::move(b));
  }
  {
    // A ring gap between chunks (events 4..9 evicted before checkpoint).
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 4;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.first_event_index = 9;
    c2.event_count = 3;
    append(b, make_chunk(c2));
    append(b, make_footer(/*final=*/false, 12, 2));
    seeds.push_back(std::move(b));
  }
  {
    // Torn tail: a complete chunk followed by a half-written envelope.
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 4;
    append(b, make_chunk(c1));
    const Bytes next = make_chunk(ChunkParams{});
    b.insert(b.end(), next.begin(), next.begin() + 10);
    seeds.push_back(std::move(b));
  }
  {
    // A coded v3 chunk: payload mutations (checksum-fixed) land inside
    // real varint and bitpacked delta bodies.
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 160;
    append(b, make_coded_chunk(c));
    append(b, make_footer(/*final=*/true, 160, 1));
    seeds.push_back(std::move(b));
  }
  {
    // A v2 file keeps the legacy (no encoding byte) path under fuzz.
    Bytes b = make_header(2);
    ChunkParams c;
    c.version = 2;
    c.event_count = 12;
    append(b, make_chunk(c));
    append(b, make_footer(/*final=*/true, 12, 1));
    seeds.push_back(std::move(b));
  }
  return seeds;
}

std::vector<Bytes> load_corpus(const FuzzOptions& opts,
                               FuzzStats& stats) {
  std::vector<Bytes> corpus;
  if (!opts.corpus_dir.empty() && fs::is_directory(opts.corpus_dir)) {
    for (const std::string& f : evstore::list_run_files(opts.corpus_dir)) {
      const std::string name = fs::path(f).filename().string();
      if (name.starts_with("finding-") || name.starts_with("fuzz-last-input")) {
        continue;
      }
      Bytes b = read_file(f);
      if (b.size() > opts.max_input_bytes) b.resize(opts.max_input_bytes);
      corpus.push_back(std::move(b));
    }
  }
  if (corpus.empty()) corpus = builtin_seeds();
  stats.corpus_inputs = corpus.size();
  return corpus;
}

constexpr std::uint64_t kInteresting[] = {
    0,    1,    2,    0x7F,         0x80,       0xFF,
    255,  256,  1024, 0xFFFFFFFFul, 1ull << 40, UINT64_MAX,
};

}  // namespace

// --- Mutator -----------------------------------------------------------------

Bytes mutate(const Bytes& input, Rng& rng, std::size_t max_bytes) {
  Bytes out = input;
  if (out.empty()) {
    out = make_minimal_run(rng.next_below(8));
  }
  const std::uint64_t ops = 1 + rng.next_below(3);
  for (std::uint64_t op = 0; op < ops && !out.empty(); ++op) {
    const FileShape shape = scan_shape(out);
    std::uint64_t which = rng.next_below(12);
    // Structure-aware ops need at least one chunk to aim at.
    if (which >= 5 && shape.chunks.empty()) which = rng.next_below(5);
    switch (which) {
      case 0: {  // byte flips
        const std::uint64_t n = 1 + rng.next_below(8);
        for (std::uint64_t i = 0; i < n; ++i) {
          out[rng.next_below(out.size())] ^=
              static_cast<unsigned char>(1u << rng.next_below(8));
        }
        break;
      }
      case 1: {  // boundary byte set
        static constexpr unsigned char kBytes[] = {0, 1, 0x7F, 0x80, 0xFF};
        out[rng.next_below(out.size())] =
            kBytes[rng.next_below(sizeof(kBytes))];
        break;
      }
      case 2: {  // truncate anywhere
        out.resize(rng.next_below(out.size() + 1));
        break;
      }
      case 3: {  // insert a small run of random bytes
        const std::size_t len = 1 + rng.next_below(16);
        const std::size_t pos = rng.next_below(out.size() + 1);
        Bytes noise(len);
        for (auto& b : noise) {
          b = static_cast<unsigned char>(rng.next_below(256));
        }
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   noise.begin(), noise.end());
        break;
      }
      case 4: {  // splice an interesting integer
        const std::size_t width = rng.next_bool() ? 4 : 8;
        if (out.size() < width) break;
        const std::uint64_t v =
            kInteresting[rng.next_below(std::size(kInteresting))];
        const std::size_t pos = rng.next_below(out.size() - width + 1);
        std::memcpy(out.data() + pos, &v, width);
        break;
      }
      case 5: {  // tear: truncate inside a chunk
        const ChunkSpan& span =
            shape.chunks[rng.next_below(shape.chunks.size())];
        const std::size_t extent =
            fmt::kChunkEnvelopeBytes +
            static_cast<std::size_t>(
                std::min<std::uint64_t>(span.payload_len, 1u << 20));
        out.resize(std::min<std::size_t>(
            out.size(), span.offset + rng.next_below(extent + 1)));
        break;
      }
      case 6: {  // corrupt a complete chunk's checksum
        const ChunkSpan& span =
            shape.chunks[rng.next_below(shape.chunks.size())];
        if (!span.complete) break;
        const std::size_t sum_off =
            span.offset + 12 + static_cast<std::size_t>(span.payload_len);
        if (sum_off + 8 <= out.size()) {
          out[sum_off + rng.next_below(8)] ^= 0xFF;
        }
        break;
      }
      case 7: {  // payload mutation, checksum fixed (reach the parser)
        const ChunkSpan& span =
            shape.chunks[rng.next_below(shape.chunks.size())];
        if (!span.complete || span.payload_len == 0) break;
        const std::uint64_t n = 1 + rng.next_below(4);
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::size_t pos =
              span.offset + 12 +
              static_cast<std::size_t>(rng.next_below(span.payload_len));
          out[pos] = static_cast<unsigned char>(rng.next_below(256));
        }
        fix_chunk_checksum(out, span);
        break;
      }
      case 8: {  // patch a payload_len
        const ChunkSpan& span =
            shape.chunks[rng.next_below(shape.chunks.size())];
        if (span.offset + 12 > out.size()) break;
        std::uint64_t v;
        switch (rng.next_below(4)) {
          case 0:
            v = 0;
            break;
          case 1:
            v = (1ull << 40) + rng.next_below(1u << 20);
            break;
          case 2:
            v = span.payload_len + rng.next_in(-20, 20);
            break;
          default:
            v = rng.next_below(1u << 20);
            break;
        }
        std::memcpy(out.data() + span.offset + 4, &v, 8);
        break;
      }
      case 9: {  // duplicate a complete chunk in place
        const ChunkSpan& span =
            shape.chunks[rng.next_below(shape.chunks.size())];
        if (!span.complete) break;
        const std::size_t extent =
            fmt::kChunkEnvelopeBytes +
            static_cast<std::size_t>(span.payload_len);
        if (out.size() + extent > max_bytes) break;
        Bytes copy(out.begin() + static_cast<std::ptrdiff_t>(span.offset),
                   out.begin() +
                       static_cast<std::ptrdiff_t>(span.offset + extent));
        out.insert(
            out.begin() + static_cast<std::ptrdiff_t>(span.offset + extent),
            copy.begin(), copy.end());
        break;
      }
      case 10: {  // remove a complete chunk
        const ChunkSpan& span =
            shape.chunks[rng.next_below(shape.chunks.size())];
        if (!span.complete) break;
        const std::size_t extent =
            fmt::kChunkEnvelopeBytes +
            static_cast<std::size_t>(span.payload_len);
        out.erase(
            out.begin() + static_cast<std::ptrdiff_t>(span.offset),
            out.begin() + static_cast<std::ptrdiff_t>(span.offset + extent));
        break;
      }
      default: {  // footer games: replace/append a checksum-valid footer
        const Bytes footer = make_footer(
            rng.next_bool(), rng.next_below(64), rng.next_below(8),
            rng.next_in(0, 1'000'000));
        if (shape.has_footer) {
          out.resize(shape.footer_offset);
        }
        if (out.size() + footer.size() <= max_bytes) {
          append(out, footer);
        }
        break;
      }
    }
  }
  if (out.size() > max_bytes) out.resize(max_bytes);
  return out;
}

// --- Minimization ------------------------------------------------------------

Bytes minimize_input(Bytes input,
                     const std::function<bool(const Bytes&)>& predicate) {
  int evals = 2048;
  const auto try_candidate = [&](Bytes candidate, Bytes& cur) {
    if (evals <= 0 || candidate.size() >= cur.size()) return false;
    --evals;
    if (!predicate(candidate)) return false;
    cur = std::move(candidate);
    return true;
  };

  bool improved = true;
  while (improved && evals > 0) {
    improved = false;

    // Whole-chunk removal, largest structure first.
    const FileShape shape = scan_shape(input);
    for (std::size_t i = shape.chunks.size(); i-- > 0;) {
      const ChunkSpan& span = shape.chunks[i];
      if (!span.complete) continue;
      const std::size_t extent =
          fmt::kChunkEnvelopeBytes + static_cast<std::size_t>(span.payload_len);
      Bytes candidate = input;
      candidate.erase(
          candidate.begin() + static_cast<std::ptrdiff_t>(span.offset),
          candidate.begin() + static_cast<std::ptrdiff_t>(span.offset + extent));
      if (try_candidate(std::move(candidate), input)) {
        improved = true;
        break;  // offsets are stale now; rescan
      }
    }
    if (improved) continue;

    // Tail truncation by halves.
    for (std::size_t div = 2; div <= 64 && input.size() / div > 0; div *= 2) {
      Bytes candidate = input;
      candidate.resize(input.size() - input.size() / div);
      if (try_candidate(std::move(candidate), input)) {
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // Block removal at shrinking granularity.
    for (std::size_t block : {256u, 64u, 16u, 4u, 1u}) {
      if (block >= input.size()) continue;
      for (std::size_t pos = 0; pos + block <= input.size() && evals > 0;
           pos += block) {
        Bytes candidate = input;
        candidate.erase(
            candidate.begin() + static_cast<std::ptrdiff_t>(pos),
            candidate.begin() + static_cast<std::ptrdiff_t>(pos + block));
        if (try_candidate(std::move(candidate), input)) {
          improved = true;
          break;
        }
      }
      if (improved) break;
    }
  }
  return input;
}

// --- Campaign loop -----------------------------------------------------------

namespace {

// Runs one input through the file-based target, classifying the result.
// Returns a finding description, or nullopt when the contract held.
// Non-Error exceptions anywhere below are findings by definition.
std::optional<std::string> exec_input(const FuzzOptions& opts,
                                      const Bytes& input,
                                      const fs::path& workdir,
                                      const fs::path& pin_path,
                                      std::uint64_t reveal_seed,
                                      FuzzStats& stats,
                                      std::set<std::string>& classes) {
  // Pin the input before touching the target: if the target takes the
  // process down, the repro survives on disk.
  write_file(pin_path.string(), input);
  try {
    if (opts.target == "follower") {
      return exec_follower(input, workdir, reveal_seed, stats, classes);
    }
    if (opts.target == "hub") {
      return exec_hub(input, workdir, reveal_seed, stats, classes);
    }
    return exec_run_io(pin_path.string(), stats, classes);
  } catch (const std::bad_alloc&) {
    return std::string("unexpected std::bad_alloc");
  } catch (const Error&) {
    throw;  // harness I/O failure, not a target outcome
  } catch (const std::exception& e) {
    return std::string("unexpected exception: ") + e.what();
  }
}

void save_finding(const FuzzOptions& opts, const fs::path& artifacts,
                  std::uint64_t finding_no, const Bytes& input,
                  std::uint64_t reveal_seed, const std::string& what,
                  const fs::path& workdir, const fs::path& pin_path) {
  const std::string stem = "finding-" + std::to_string(finding_no);
  write_file((artifacts / (stem + ".dgtrace")).string(), input);

  std::ofstream note(artifacts / (stem + ".txt"));
  note << "target: " << opts.target << "\nseed: " << opts.seed
       << "\nreveal_seed: " << reveal_seed << "\nfinding: " << what << "\n";

  // Shrink while any finding (not necessarily the same one) reproduces.
  FuzzStats scratch;
  std::set<std::string> scratch_classes;
  const Bytes minimized = minimize_input(
      input, [&](const Bytes& candidate) {
        try {
          return exec_input(opts, candidate, workdir, pin_path, reveal_seed,
                            scratch, scratch_classes)
              .has_value();
        } catch (...) {
          return false;
        }
      });
  write_file((artifacts / (stem + ".min.dgtrace")).string(), minimized);
}

}  // namespace

FuzzStats run_fuzzer(const FuzzOptions& opts) {
  DIOG_CHECK(opts.target == "run-io" || opts.target == "follower" ||
                 opts.target == "ring" || opts.target == "hub",
             "unknown fuzz target: " + opts.target +
                 " (expected run-io | follower | ring | hub)");
  FuzzStats stats;
  std::set<std::string> classes;
  Rng rng(opts.seed);

  const fs::path artifacts =
      opts.corpus_dir.empty()
          ? fs::temp_directory_path() /
                ("diog-fuzz-" + opts.target + "-" + std::to_string(opts.seed))
          : fs::path(opts.corpus_dir);
  fs::create_directories(artifacts);
  const fs::path workdir = artifacts / "work";
  fs::create_directories(workdir);
  const fs::path pin_path = artifacts / "fuzz-last-input.dgtrace";

  std::vector<Bytes> corpus;
  if (opts.target != "ring") corpus = load_corpus(opts, stats);

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  while (stats.execs < opts.max_execs && elapsed() < opts.budget_s &&
         stats.findings < 10) {
    const std::uint64_t reveal_seed = exec_seed(opts.seed, stats.execs);
    std::optional<std::string> finding;
    Bytes input;
    if (opts.target == "ring") {
      finding = exec_ring(reveal_seed);
      if (!finding) ++stats.clean_ok;
    } else {
      const Bytes& base = corpus[rng.next_below(corpus.size())];
      input = mutate(base, rng, opts.max_input_bytes);
      finding = exec_input(opts, input, workdir, pin_path, reveal_seed,
                           stats, classes);
      // Inputs that provoke a new error class are structurally
      // interesting: keep them as mutation bases (bounded).
      if (!finding && classes.size() > stats.error_classes &&
          corpus.size() < 256) {
        corpus.push_back(input);
      }
      stats.error_classes = classes.size();
    }
    ++stats.execs;

    if (finding) {
      ++stats.findings;
      if (opts.target == "ring") {
        std::ofstream note(artifacts /
                           ("finding-" + std::to_string(stats.findings) +
                            ".txt"));
        note << "target: ring\nseed: " << opts.seed
             << "\nexec_seed: " << reveal_seed << "\nfinding: " << *finding
             << "\n";
      } else {
        save_finding(opts, artifacts, stats.findings, input, reveal_seed,
                     *finding, workdir, pin_path);
      }
      if (opts.verbose) {
        std::ofstream log(artifacts / "fuzz.log", std::ios::app);
        log << "exec " << stats.execs << ": " << *finding << "\n";
      }
    }
  }

  stats.error_classes = classes.size();
  stats.elapsed_s = elapsed();
  return stats;
}

std::string FuzzStats::render() const {
  std::ostringstream os;
  os << "execs           " << execs << "\n"
     << "clean loads     " << clean_ok << "\n"
     << "prefix loads    " << clean_prefix << "\n"
     << "clean errors    " << clean_errors << " (" << error_classes
     << " distinct classes)\n"
     << "findings        " << findings << "\n"
     << "corpus seeds    " << corpus_inputs << "\n"
     << "elapsed         " << elapsed_s << " s\n"
     << (findings == 0 ? "OK: contract held on every input"
                       : "FAIL: contract violations found");
  return os.str();
}

// --- Artifact minimization (out of process) ----------------------------------

int minimize_artifact(const std::string& artifact_path,
                      const FuzzOptions& opts) {
  const Bytes original = read_file(artifact_path);
  const fs::path workdir =
      fs::path(artifact_path).parent_path() / "minimize-work";
  fs::create_directories(workdir);
  const fs::path pin_path = workdir / "fuzz-last-input.dgtrace";

  // Each candidate runs in a forked child: a crash (signal) or a finding
  // (exit 1) both count as "still reproduces", so minimization works on
  // hard crashes that would kill an in-process predicate.
  const auto reproduces = [&](const Bytes& candidate) {
    const pid_t pid = ::fork();
    DIOG_CHECK(pid >= 0, "fork failed during artifact minimization");
    if (pid == 0) {
      FuzzStats scratch;
      std::set<std::string> scratch_classes;
      bool found;
      try {
        found = exec_input(opts, candidate, workdir, pin_path, opts.seed,
                           scratch, scratch_classes)
                    .has_value();
      } catch (...) {
        found = true;
      }
      ::_exit(found ? 1 : 0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFSIGNALED(status)) return true;
    return WIFEXITED(status) && WEXITSTATUS(status) != 0;
  };

  if (!reproduces(original)) return 0;
  const Bytes minimized = minimize_input(original, reproduces);
  write_file(artifact_path + ".min", minimized);
  return 1;
}

}  // namespace diog::testkit
