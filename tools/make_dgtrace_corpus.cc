// Regenerates the committed .dgtrace test inputs.
//
//   make_dgtrace_corpus <output-dir>
//
// Writes two sets under <output-dir>:
//   regression/   the satellite-1 malformed-file suite consumed by
//                 testkit_fuzz_test (each file exercises one rejection
//                 or prefix path of open_run);
//   corpus/       valid and boundary seed inputs for the CI fuzz smoke
//                 (`diogenes fuzz run-io --corpus .../corpus`).
//
// The files are deterministic byte-for-byte: rerun after a format change
// and commit the diff. Built on testkit's builder, which implements the
// format independently of the production writer, so the generator can
// emit shapes (zero-length chunks, overlapping ranges, lying footers)
// the writer never could.
#include <cstdio>
#include <filesystem>
#include <string>

#include "eventstore/run_format.h"
#include "testkit/dgtrace_builder.h"

namespace {

namespace fs = std::filesystem;
using diog::testkit::Bytes;
using diog::testkit::ChunkParams;

void write(const fs::path& dir, const std::string& name, const Bytes& b) {
  diog::testkit::write_file((dir / name).string(), b);
  std::printf("%8zu  %s\n", b.size(), (dir / name).string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_dgtrace_corpus <output-dir>\n");
    return 2;
  }
  using namespace diog::testkit;
  namespace fmt = diog::evstore::format;

  const fs::path out(argv[1]);
  const fs::path reg = out / "regression";
  const fs::path corpus = out / "corpus";
  fs::create_directories(reg);
  fs::create_directories(corpus);

  // --- regression: files open_run must load ---------------------------------
  write(reg, "mini_clean.dgtrace", make_minimal_run(4));
  {
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 8;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.first_event_index = 8;
    c2.event_count = 12;
    append(b, make_chunk(c2));
    append(b, make_footer(/*final=*/true, 20, 2));
    write(reg, "mini_multichunk.dgtrace", b);
  }
  {
    // A complete chunk followed by the first bytes of the next one: the
    // shape a SIGKILL mid-checkpoint leaves. Loads as a torn prefix.
    Bytes b = make_header();
    ChunkParams c;
    c.event_count = 6;
    append(b, make_chunk(c));
    ChunkParams next;
    next.first_event_index = 6;
    next.event_count = 6;
    const Bytes full = make_chunk(next);
    b.insert(b.end(), full.begin(), full.begin() + 10);
    write(reg, "torn_tail.dgtrace", b);
  }

  // --- regression: files open_run must reject as corrupt --------------------
  {
    // Satellite 1: a COMPLETE chunk with a zero-length payload. Without
    // the minimum-payload guard this used to parse as an empty record.
    Bytes b = make_header();
    append(b, make_raw_chunk(Bytes{}));
    write(reg, "zero_len_chunk.dgtrace", b);
  }
  {
    // Satellite 1: payload present but smaller than any well-formed
    // chunk body (meta_len alone needs 8 bytes more than this).
    Bytes b = make_header();
    append(b, make_raw_chunk(Bytes(fmt::kMinChunkPayloadBytes - 1, 0)));
    write(reg, "undersized_chunk.dgtrace", b);
  }
  {
    // Satellite 1: the second chunk's event range overlaps the first
    // (first_event_index rewinds) — self-overlapping data is corruption,
    // not a ring gap.
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 8;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.first_event_index = 4;  // rewinds into chunk 1's range
    c2.event_count = 8;
    append(b, make_chunk(c2));
    write(reg, "overlap_chunks.dgtrace", b);
  }
  {
    // A complete chunk whose payload was altered after checksumming.
    Bytes b = make_minimal_run(4);
    const FileShape shape = scan_shape(b);
    const std::size_t payload =
        shape.chunks.at(0).offset + fmt::kChunkEnvelopeBytes - 8;
    b[payload + 4] ^= 0xFF;
    write(reg, "bad_checksum.dgtrace", b);
  }
  {
    // Footer totals that contradict the chunks they summarize.
    Bytes b = make_header();
    ChunkParams c;
    c.event_count = 8;
    append(b, make_chunk(c));
    append(b, make_footer(/*final=*/true, /*total_events=*/9,
                          /*chunk_count=*/1));
    write(reg, "footer_mismatch.dgtrace", b);
  }
  {
    Bytes b = make_header();
    b.resize(7);  // half the magic
    write(reg, "truncated_header.dgtrace", b);
  }

  // --- regression: v2 compatibility and v3 coded chunks ---------------------
  {
    // A version-2 file (no chunk-encoding byte): the v3 reader must keep
    // opening the previous format cleanly.
    Bytes b = make_header(2);
    ChunkParams c1;
    c1.version = 2;
    c1.event_count = 8;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.version = 2;
    c2.first_event_index = 8;
    c2.event_count = 12;
    append(b, make_chunk(c2));
    append(b, make_footer(/*final=*/true, 20, 2));
    write(reg, "v2_multichunk.dgtrace", b);
  }
  {
    // A clean v3 file whose columns genuinely use the varint and delta
    // codecs (builder-side codec implementation — a spec cross-check of
    // the production decoder).
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 300;  // > one delta miniblock
    append(b, make_coded_chunk(c));
    append(b, make_footer(/*final=*/true, 300, 1));
    write(reg, "v3_coded_clean.dgtrace", b);
  }
  {
    // An unknown chunk-encoding byte (checksum valid, so it reaches the
    // deep parser) must classify, never crash.
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 16;
    c.encoding_byte = 7;
    append(b, make_coded_chunk(c));
    write(reg, "bad_chunk_encoding.dgtrace", b);
  }
  {
    // A column codec id past kCodecCount.
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 16;
    c.corruption = CodedChunkParams::Corruption::kBadCodec;
    append(b, make_coded_chunk(c));
    write(reg, "bad_column_codec.dgtrace", b);
  }
  {
    // A bitpacked delta body cut short, with enc_len updated to match —
    // only the codec's own bounds checks can catch it.
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 200;
    c.corruption = CodedChunkParams::Corruption::kTruncatedDelta;
    append(b, make_coded_chunk(c));
    write(reg, "truncated_bitpack.dgtrace", b);
  }
  {
    // A varint whose continuation bits run past the declared body.
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 16;
    c.corruption = CodedChunkParams::Corruption::kVarintOverrun;
    c.corrupt_column = 12;  // bytes column: varint-coded
    append(b, make_coded_chunk(c));
    write(reg, "varint_overrun.dgtrace", b);
  }
  {
    // A clean coded chunk whose api ids run past hooks::Fn::kCount_: the
    // store would hold events no API name describes.
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 300;
    c.corruption = CodedChunkParams::Corruption::kUnknownApi;
    append(b, make_coded_chunk(c));
    append(b, make_footer(/*final=*/true, 300, 1));
    write(reg, "unknown_api.dgtrace", b);
  }
  {
    // The hub torn-stream matrix (ISSUE 9 satellite 4): one two-chunk
    // run cut at the three places a connection can die — mid-chunk,
    // on a chunk boundary, and mid-footer. Each must classify exactly
    // as open_run classifies the same local truncation, whether read
    // from disk or streamed through a hub session.
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 8;
    append(b, make_chunk(c1));
    const std::size_t chunk2_at = b.size();
    ChunkParams c2;
    c2.first_event_index = 8;
    c2.event_count = 12;
    append(b, make_chunk(c2));
    const std::size_t footer_at = b.size();
    append(b, make_footer(/*final=*/true, 20, 2));

    write(reg, "hub_torn_mid_chunk.dgtrace",
          Bytes(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(
                                           chunk2_at + 10)));
    write(reg, "hub_torn_between_chunks.dgtrace",
          Bytes(b.begin(),
                b.begin() + static_cast<std::ptrdiff_t>(footer_at)));
    write(reg, "hub_torn_mid_footer.dgtrace",
          Bytes(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(
                                           footer_at + fmt::kFooterBytes / 2)));
  }

  // --- corpus: seeds for the CI fuzz smoke ----------------------------------
  write(corpus, "empty_run.dgtrace", make_minimal_run(0));
  write(corpus, "small_run.dgtrace", make_minimal_run(16));
  {
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 8;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.first_event_index = 8;
    c2.event_count = 12;
    append(b, make_chunk(c2));
    append(b, make_footer(/*final=*/true, 20, 2));
    write(corpus, "multichunk.dgtrace", b);
  }
  {
    // A ring gap: events 4..8 evicted before checkpointing. Valid, and
    // exercises the dropped-events accounting.
    Bytes b = make_header();
    ChunkParams c1;
    c1.event_count = 4;
    append(b, make_chunk(c1));
    ChunkParams c2;
    c2.first_event_index = 9;
    c2.event_count = 3;
    append(b, make_chunk(c2));
    append(b, make_footer(/*final=*/false, 12, 2));
    write(corpus, "ring_gap.dgtrace", b);
  }
  {
    Bytes b = make_header();
    ChunkParams c;
    c.event_count = 6;
    append(b, make_chunk(c));
    ChunkParams next;
    next.first_event_index = 6;
    next.event_count = 6;
    const Bytes full = make_chunk(next);
    b.insert(b.end(), full.begin(), full.begin() + 10);
    write(corpus, "torn_tail.dgtrace", b);
  }
  {
    // A coded v3 seed: mutations land inside real varint and bitpacked
    // delta bodies, so the codec decoders see hostile bytes every run.
    Bytes b = make_header();
    CodedChunkParams c;
    c.event_count = 160;  // two delta miniblocks
    append(b, make_coded_chunk(c));
    append(b, make_footer(/*final=*/true, 160, 1));
    write(corpus, "coded_run.dgtrace", b);
  }
  {
    // A v2 seed keeps the legacy decode path in every campaign.
    Bytes b = make_header(2);
    ChunkParams c;
    c.version = 2;
    c.event_count = 12;
    append(b, make_chunk(c));
    append(b, make_footer(/*final=*/true, 12, 1));
    write(corpus, "v2_run.dgtrace", b);
  }
  return 0;
}
