#include "archive/archive.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "eventstore/run_io.h"
#include "hashing/content_hash.h"
#include "json/json.h"
#include "support/clock.h"
#include "support/error.h"

namespace diog::archive {

namespace fs = std::filesystem;

namespace {

std::vector<std::byte> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("archive: cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  if (len < 0) throw Error("archive: cannot stat " + path);
  in.seekg(0, std::ios::beg);
  std::vector<std::byte> bytes(static_cast<std::size_t>(len));
  if (len > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), len)) {
    throw Error("archive: short read on " + path);
  }
  return bytes;
}

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
  const std::vector<std::byte> bytes = slurp(run_file);
  const std::string id = run_id_of(bytes);

  AddResult res;
  res.object_path = object_path(opts_.root, id);
  if (fs::exists(res.object_path)) {
    // Identical bytes were ingested before; the existing index line
    // already describes them, so re-ingestion appends nothing.
    res.deduplicated = true;
    for (RunDigest& d : index()) {
      if (d.run_id == id) {
        res.digest = std::move(d);
        return res;
      }
    }
    // Orphan object (crash between rename and index append): fall
    // through and re-digest so the index line finally lands.
    res.deduplicated = false;
  }

  evstore::RunFileInfo info;
  evstore::TraceRun run = evstore::open_run(run_file, evstore::ReadMode::kAuto,
                                            &info);
  if (!info.finalized) {
    throw Error("archive: " + run_file +
                " is not finalized; an in-progress prefix is not a unit "
                "of comparison");
  }

  res.digest = digest_run(run, info, opts_.config);
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

std::vector<RunDigest> Archive::index() const {
  std::vector<RunDigest> out;
  std::ifstream in(index_path(opts_.root));
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      out.push_back(RunDigest::from_json(json::parse(line)));
    } catch (const Error&) {
      // Torn or foreign line (interrupted append): skip, keep reading —
      // later lines may be intact if someone appended past the tear.
    }
  }
  return out;
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
