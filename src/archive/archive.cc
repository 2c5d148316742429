#include "archive/archive.h"

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "eventstore/run_io.h"
#include "hashing/content_hash.h"
#include "json/json.h"
#include "obs/telemetry.h"
#include "support/clock.h"
#include "support/error.h"
#include "support/input_file.h"

namespace diog::archive {

namespace fs = std::filesystem;

namespace {

// Whole-buffer write via temp-then-rename: a reader never sees a
// half-written object, and a crash leaves only a .tmp to sweep.
void write_atomic(const fs::path& dest, std::span<const std::byte> bytes) {
  const fs::path tmp = dest.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("archive: cannot write " + tmp.string());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw Error("archive: short write on " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, dest, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw Error("archive: rename to " + dest.string() + " failed");
  }
}

// The digest of a run opened from `run_file`; an in-progress prefix is
// refused. The archive stamps the id, size and ingest clock.
RunDigest digest_finalized(const std::string& run_file,
                           const evstore::TraceRun& run,
                           const evstore::RunFileInfo& info,
                           const ffm::ToolConfig& cfg) {
  if (!info.finalized) {
    throw Error("archive: " + run_file +
                " is not finalized; an in-progress prefix is not a unit "
                "of comparison");
  }
  return digest_run(run, info, cfg);
}

}  // namespace

std::string index_path(const std::string& root) {
  return (fs::path(root) / "index.jsonl").string();
}

std::string object_path(const std::string& root, const std::string& run_id) {
  return (fs::path(root) / "objects" / (run_id + ".dgtrace")).string();
}

std::string run_id_of(std::span<const std::byte> bytes) {
  const hash::Digest d = hash::hash64_blocked(bytes);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return std::string(buf, 16);
}

Archive::Archive(ArchiveOptions opts) : opts_(std::move(opts)) {
  DIOG_CHECK(!opts_.root.empty(), "archive: empty root");
}

Archive::AddResult Archive::add(const std::string& run_file) {
  return add_with(run_file, [&] {
    evstore::RunFileInfo info;
    const evstore::TraceRun run =
        evstore::open_run(run_file, evstore::ReadMode::kAuto, &info);
    return digest_finalized(run_file, run, info, opts_.config);
  });
}

Archive::AddResult Archive::add(const std::string& run_file,
                                const evstore::TraceRun& run,
                                const evstore::RunFileInfo& info) {
  return add_with(run_file, [&] {
    return digest_finalized(run_file, run, info, opts_.config);
  });
}

// Both add() entry points: `digest_new` runs only for bytes the archive
// has not indexed yet.
template <typename DigestNew>
Archive::AddResult Archive::add_with(const std::string& run_file,
                                     DigestNew&& digest_new) {
  const std::optional<std::string> text = support::read_file(run_file);
  if (!text) throw Error("archive: cannot open " + run_file);
  const std::span<const std::byte> bytes = std::as_bytes(std::span(*text));
  const std::string id = run_id_of(bytes);

  AddResult res;
  res.object_path = object_path(opts_.root, id);
  if (fs::exists(res.object_path)) {
    // Identical bytes were ingested before; the existing index line
    // already describes them, so re-ingestion appends nothing.
    for (const RunDigest& d : index()) {
      if (d.run_id == id) {
        res.digest = d;
        res.deduplicated = true;
        return res;
      }
    }
    // Orphan object (crash between rename and index append): fall
    // through and re-digest so the index line finally lands.
  }

  res.digest = digest_new();
  res.digest.run_id = id;
  res.digest.file_bytes = bytes.size();
  res.digest.ingest_wall_ms =
      opts_.ingest_wall_ms >= 0 ? opts_.ingest_wall_ms : wall_clock_ms();

  fs::create_directories(fs::path(opts_.root) / "objects");
  if (!fs::exists(res.object_path)) {
    write_atomic(res.object_path, bytes);
  }

  // Single whole-line append; the reader's torn-tail tolerance covers a
  // crash mid-write.
  std::ofstream idx(index_path(opts_.root), std::ios::app);
  if (!idx) throw Error("archive: cannot append " + index_path(opts_.root));
  idx << res.digest.to_json().dump() << '\n';
  if (!idx) throw Error("archive: short append " + index_path(opts_.root));
  return res;
}

const std::vector<RunDigest>& Archive::index() const {
  IndexCache& c = index_;
  if (c.tail) {
    c.entries.pop_back();
    c.tail = false;
  }
  const support::InputFile f(index_path(opts_.root));
  if (!f.is_open()) {
    c = IndexCache{};
    return c.entries;
  }
  const struct stat& st = f.stat();
  // Resume at the last complete line while the file still holds it;
  // otherwise (gc's rename, a rewrite, a truncation) start over.
  std::optional<std::string> text;
  std::size_t pos = 0;
  const bool same_file = st.st_dev == c.dev && st.st_ino == c.ino &&
                         static_cast<std::uint64_t>(st.st_size) >= c.offset;
  if (same_file) {
    text = f.read_from(c.offset - c.last_line.size());
    pos = c.last_line.size();
  }
  if (!same_file || (text && !text->starts_with(c.last_line))) {
    c = IndexCache{};
    text = f.read_from(0);
    pos = 0;
  }
  if (!text) throw Error("archive: cannot read the index");
  const std::string& buf = *text;
  c.dev = st.st_dev;
  c.ino = st.st_ino;

  std::uint64_t lines = 0;
  for (;;) {
    const std::size_t nl = buf.find('\n', pos);
    const bool complete = nl != std::string::npos;
    const std::string_view line(buf.data() + pos,
                                (complete ? nl : buf.size()) - pos);
    if (!line.empty()) {
      ++lines;
      try {
        c.entries.push_back(RunDigest::from_json(json::parse(line)));
        c.tail = !complete;
      } catch (const Error&) {
        // Torn or foreign line (interrupted append): skip, keep reading —
        // later lines may be intact if someone appended past the tear.
      }
    }
    if (!complete) break;
    c.last_line.assign(buf, pos, nl + 1 - pos);
    c.offset += nl + 1 - pos;
    pos = nl + 1;
  }
  if (lines > 0 && obs::Telemetry::enabled()) {
    obs::Telemetry::global().metrics().counter("archive.index_lines_read")
        .inc(lines);
  }
  return c.entries;
}

Archive::GcStats Archive::gc() {
  GcStats st;
  std::vector<RunDigest> entries = index();

  // Pass 1: compact away index entries whose object vanished.
  std::vector<RunDigest> kept;
  kept.reserve(entries.size());
  for (RunDigest& d : entries) {
    if (fs::exists(object_path(opts_.root, d.run_id))) {
      kept.push_back(std::move(d));
    } else {
      ++st.index_dropped;
    }
  }
  st.index_entries = kept.size();
  if (st.index_dropped > 0) {
    const fs::path idx = index_path(opts_.root);
    const fs::path tmp = idx.string() + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) throw Error("archive: cannot write " + tmp.string());
      for (const RunDigest& d : kept) out << d.to_json().dump() << '\n';
      if (!out) throw Error("archive: short write on " + tmp.string());
    }
    std::error_code ec;
    fs::rename(tmp, idx, ec);
    if (ec) throw Error("archive: rename to " + idx.string() + " failed");
    index_ = IndexCache{};
  }

  // Pass 2: remove objects (and stale temps) no surviving entry names.
  std::set<std::string> live;
  for (const RunDigest& d : kept) live.insert(d.run_id + ".dgtrace");
  const fs::path objects = fs::path(opts_.root) / "objects";
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(objects, ec)) {
    const std::string name = ent.path().filename().string();
    if (live.count(name)) {
      ++st.objects_kept;
      continue;
    }
    std::error_code rec;
    const std::uint64_t sz = fs::file_size(ent.path(), rec);
    fs::remove(ent.path(), rec);
    if (!rec) {
      ++st.objects_removed;
      st.bytes_removed += sz;
    }
  }
  return st;
}

Archive::Stats Archive::stats() const {
  Stats st;
  std::set<std::string> ids;
  std::set<std::string> workloads;
  for (const RunDigest& d : index()) {
    ++st.index_entries;
    if (ids.insert(d.run_id).second) st.bytes += d.file_bytes;
    workloads.insert(d.workload);
  }
  st.runs = ids.size();
  st.workloads = workloads.size();
  return st;
}

}  // namespace diog::archive
