// Unit tests for the parallel zero-copy ingest engine: quote-aware
// chunk planning, the in-chunk record cursor, mmap/stream file access,
// the zero-copy field splitter and the parallel loader's determinism
// (records, metrics and error reporting identical to the serial path).

#include "ingest/chunk.hpp"
#include "ingest/loader.hpp"
#include "ingest/mapped_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::ingest {
namespace {

// ---------------------------------------------------------------- helpers

/// All records of `data` via one cursor (the chunking-free reference).
std::vector<std::string> records_of(std::string_view data) {
  std::vector<std::string> out;
  CsvCursor cursor(data);
  std::string_view record;
  while (cursor.next(record)) out.emplace_back(record);
  return out;
}

/// All records of `data` re-assembled from a chunk plan.
std::vector<std::string> records_via_chunks(std::string_view data,
                                            std::size_t target_chunks,
                                            std::size_t min_chunk_bytes) {
  std::vector<std::string> out;
  for (const Chunk& chunk : plan_chunks(data, target_chunks, min_chunk_bytes)) {
    CsvCursor cursor(chunk.data);
    std::string_view record;
    while (cursor.next(record)) out.emplace_back(record);
  }
  return out;
}

/// Asserts the chunk plan partitions `data` exactly and preserves the
/// record sequence, for a handful of chunk-count targets.
void expect_plan_is_partition(std::string_view data) {
  const std::vector<std::string> reference = records_of(data);
  for (std::size_t target : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                             std::size_t{7}, std::size_t{64}}) {
    const auto chunks = plan_chunks(data, target, 1);
    std::string reassembled;
    for (const auto& c : chunks) reassembled += std::string(c.data);
    EXPECT_EQ(reassembled, data) << "target=" << target;
    EXPECT_EQ(records_via_chunks(data, target, 1), reference)
        << "target=" << target;
    for (std::size_t i = 0; i < chunks.size(); ++i)
      EXPECT_EQ(chunks[i].index, i);
  }
}

class IngestFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_ingest_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write(std::string_view content) {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }

  std::string path_;
};

// ---------------------------------------------------------------- chunker

TEST(IngestChunker, EmptyInputYieldsNoChunks) {
  EXPECT_TRUE(plan_chunks("", 8).empty());
}

TEST(IngestChunker, FileSmallerThanOneChunkStaysWhole) {
  const std::string data = "1,a\n2,b\n3,c\n";
  const auto chunks = plan_chunks(data, 8);  // default 64 KiB floor
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].data, data);
}

TEST(IngestChunker, SplitsPlainRecordsOnNewlines) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += std::to_string(i) + ",x\n";
  expect_plan_is_partition(data);
}

TEST(IngestChunker, QuotedNewlineNeverSplitsARecord) {
  // Every record carries a quoted '\n'; a parity-blind chunker would cut
  // half the records in two at some target count.
  std::string data;
  for (int i = 0; i < 60; ++i)
    data += std::to_string(i) + ",\"line one\nline two\"\n";
  expect_plan_is_partition(data);
  for (const auto& record : records_of(data))
    EXPECT_NE(record.find('\n'), std::string::npos);
}

TEST(IngestChunker, EscapedQuotesStraddlingBoundariesKeepParity) {
  // Runs of "" flip parity twice; records alternate between quoted text
  // with escaped quotes and quoted newlines so most candidate offsets
  // land inside some quoted region.
  std::string data;
  for (int i = 0; i < 60; ++i) {
    data += std::to_string(i) + ",\"say \"\"hi\"\"\"\n";
    data += std::to_string(i) + ",\"a\nb\",\"\"\"\"\n";
  }
  expect_plan_is_partition(data);
}

TEST(IngestChunker, TrailingRecordWithoutNewline) {
  const std::string data = "1,a\n2,b\n3,c";  // no trailing '\n'
  expect_plan_is_partition(data);
  EXPECT_EQ(records_of(data),
            (std::vector<std::string>{"1,a", "2,b", "3,c"}));
}

TEST(IngestChunker, ChunkSizeFloorLimitsChunkCount) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += std::to_string(i) + ",x\n";
  // ~590 bytes with a 300-byte floor: at most 1 boundary may be placed.
  const auto chunks = plan_chunks(data, 64, 300);
  EXPECT_LE(chunks.size(), 2u);
}

// ----------------------------------------------------------------- cursor

TEST(IngestCursor, StripsCrLfTerminators) {
  EXPECT_EQ(records_of("1,a\r\n2,b\r\n"),
            (std::vector<std::string>{"1,a", "2,b"}));
}

TEST(IngestCursor, EmptyLinesAreRecords) {
  EXPECT_EQ(records_of("a\n\nb\n"), (std::vector<std::string>{"a", "", "b"}));
}

TEST(IngestCursor, UnterminatedQuoteRunsToEndOfChunk) {
  // Every byte after the stray quote is "inside quotes", including the
  // final newline; split_csv_fields rejects the record either way.
  EXPECT_EQ(records_of("1,\"oops\n2,b\n"),
            (std::vector<std::string>{"1,\"oops\n2,b\n"}));
}

// ----------------------------------------------------------- mapped file

TEST_F(IngestFileTest, MapsRegularFile) {
  write("hello,world\n");
  MappedFile file(path_);
  EXPECT_TRUE(file.mapped());
  EXPECT_EQ(file.view(), "hello,world\n");
}

TEST_F(IngestFileTest, StreamFallbackReadsIdenticalBytes) {
  std::string content;
  for (int i = 0; i < 5000; ++i) content += std::to_string(i) + ",payload\n";
  write(content);
  MappedFile mapped(path_);
  MappedFile streamed(path_, /*force_stream=*/true);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(streamed.mapped());
  EXPECT_EQ(mapped.view(), streamed.view());
  EXPECT_EQ(streamed.view(), content);
}

TEST_F(IngestFileTest, EmptyFileHasEmptyView) {
  write("");
  MappedFile file(path_);
  EXPECT_TRUE(file.view().empty());
  EXPECT_EQ(file.size(), 0u);
}

TEST(IngestMappedFile, MissingFileThrows) {
  EXPECT_THROW(MappedFile("/nonexistent/ingest/file.csv"), IoError);
}

TEST_F(IngestFileTest, MoveTransfersView) {
  write("a,b\n");
  MappedFile src(path_, /*force_stream=*/true);
  MappedFile dst(std::move(src));
  EXPECT_EQ(dst.view(), "a,b\n");
}

// ------------------------------------------------------ zero-copy fields

std::vector<std::string> fields_as_strings(const util::FieldVec& fields) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < fields.size(); ++i)
    out.emplace_back(fields[i]);
  return out;
}

TEST(IngestCsvFields, AgreesWithStringSplitter) {
  const std::vector<std::string> lines = {
      "a,b,c",
      ",,",
      "",
      R"("a,b","say ""hi""")",
      "plain,\"quoted\",end",
      "\"multi\nline\",x",
      "\"\",\"\"\"\"",
  };
  util::FieldVec fields;
  for (const auto& line : lines) {
    util::split_csv_fields(line, fields);
    EXPECT_EQ(fields_as_strings(fields), util::split_csv_line(line))
        << "line=" << line;
  }
}

TEST(IngestCsvFields, PlainFieldsAreViewsIntoTheLine) {
  const std::string line = "alpha,\"beta,gamma\",delta";
  util::FieldVec fields;
  util::split_csv_fields(line, fields);
  ASSERT_EQ(fields.size(), 3u);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string_view v = fields[i];
    EXPECT_GE(v.data(), line.data());
    EXPECT_LE(v.data() + v.size(), line.data() + line.size());
  }
}

TEST(IngestCsvFields, EscapedQuotesUseScratchAndSurviveGrowth) {
  // Many escaped-quote fields in one line: the scratch buffer must grow
  // mid-parse without dangling the refs recorded earlier.
  std::string line;
  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    if (i > 0) line += ',';
    line += "\"f" + std::to_string(i) + " says \"\"" +
            std::string(16, 'x') + "\"\"\"";
    expected.push_back("f" + std::to_string(i) + " says \"" +
                       std::string(16, 'x') + "\"");
  }
  util::FieldVec fields;
  util::split_csv_fields(line, fields);
  EXPECT_EQ(fields_as_strings(fields), expected);
}

TEST(IngestCsvFields, ReusedAcrossRowsWithoutLeakingState) {
  util::FieldVec fields;
  util::split_csv_fields("a,\"b\"\"c\",d", fields);
  ASSERT_EQ(fields.size(), 3u);
  util::split_csv_fields("x,y", fields);
  EXPECT_EQ(fields_as_strings(fields), (std::vector<std::string>{"x", "y"}));
}

TEST(IngestCsvFields, UnterminatedQuoteThrows) {
  util::FieldVec fields;
  EXPECT_THROW(util::split_csv_fields("\"abc", fields), ParseError);
}

// ----------------------------------------------------------------- loader

struct TestRecord {
  std::uint64_t id = 0;
  std::string text;

  friend bool operator==(const TestRecord&, const TestRecord&) = default;
};

constexpr char kPoisonText[] = "poison";

void parse_test_record(const util::FieldVec& row, TestRecord& r) {
  r.id = util::parse_uint(row[0]);
  r.text = std::string(row[1]);
  if (r.text == kPoisonText)
    throw ParseError("record " + std::to_string(r.id) + " is poisoned");
}

const std::vector<std::string> kTestHeader = {"id", "text"};
constexpr char kTestCounter[] = "test.ingest.records";

std::vector<TestRecord> load_test(const std::string& path,
                                  const LoadOptions& options) {
  return load_csv<TestRecord>(path, kTestHeader, "testlog", "test log",
                              kTestCounter, parse_test_record, options);
}

LoadOptions tiny_chunks(unsigned threads) {
  LoadOptions options;
  options.threads = threads;
  options.min_chunk_bytes = 1;  // force a real multi-chunk plan
  return options;
}

struct ParseCounters {
  std::uint64_t lines_total;
  std::uint64_t lines_rejected;
  std::uint64_t records;

  static ParseCounters snap() {
    obs::MetricsRegistry& m = obs::metrics();
    return {m.counter("parse.lines_total").value(),
            m.counter("parse.lines_rejected").value(),
            m.counter(kTestCounter).value()};
  }
  ParseCounters delta_since(const ParseCounters& base) const {
    return {lines_total - base.lines_total,
            lines_rejected - base.lines_rejected, records - base.records};
  }
};

TEST_F(IngestFileTest, LoadsRecordsInFileOrder) {
  std::string content = "id,text\n";
  std::vector<TestRecord> expected;
  for (std::uint64_t i = 0; i < 500; ++i) {
    content += std::to_string(i) + ",row " + std::to_string(i) + "\n";
    expected.push_back({i, "row " + std::to_string(i)});
  }
  write(content);
  for (unsigned threads : {1u, 2u, 8u}) {
    const ParseCounters before = ParseCounters::snap();
    const auto records = load_test(path_, tiny_chunks(threads));
    const ParseCounters d = ParseCounters::snap().delta_since(before);
    EXPECT_EQ(records, expected) << "threads=" << threads;
    EXPECT_EQ(d.lines_total, 500u);
    EXPECT_EQ(d.records, 500u);
    EXPECT_EQ(d.lines_rejected, 0u);
  }
}

TEST_F(IngestFileTest, QuotedFieldsSurviveParallelLoad) {
  std::string content = "id,text\n";
  std::vector<TestRecord> expected;
  for (std::uint64_t i = 0; i < 200; ++i) {
    content += std::to_string(i) + ",\"line one\nsays \"\"hi\"\"\"\n";
    expected.push_back({i, "line one\nsays \"hi\""});
  }
  write(content);
  EXPECT_EQ(load_test(path_, tiny_chunks(8)), expected);
}

TEST_F(IngestFileTest, StreamFallbackLoadsIdentically) {
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 300; ++i)
    content += std::to_string(i) + ",t\n";
  write(content);
  LoadOptions mapped = tiny_chunks(4);
  LoadOptions streamed = mapped;
  streamed.force_stream = true;
  EXPECT_EQ(load_test(path_, mapped), load_test(path_, streamed));
}

TEST_F(IngestFileTest, EmptyFileThrows) {
  write("");
  try {
    load_test(path_, tiny_chunks(2));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.what(), "parse error: empty CSV file: " + path_);
  }
}

TEST_F(IngestFileTest, HeaderMismatchThrows) {
  write("wrong,header\n1,a\n");
  try {
    load_test(path_, tiny_chunks(2));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.what(), "parse error: unexpected test log header in " + path_);
  }
}

TEST_F(IngestFileTest, HeaderOnlyFileLoadsZeroRecords) {
  write("id,text\n");
  const ParseCounters before = ParseCounters::snap();
  EXPECT_TRUE(load_test(path_, tiny_chunks(4)).empty());
  const ParseCounters d = ParseCounters::snap().delta_since(before);
  EXPECT_EQ(d.lines_total, 0u);
  EXPECT_EQ(d.records, 0u);
}

TEST_F(IngestFileTest, ArityMismatchReportsSerialRowNumber) {
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 100; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "100,too,many\n";  // data row 101 → file row 102
  for (std::uint64_t i = 101; i < 200; ++i)
    content += std::to_string(i) + ",ok\n";
  write(content);
  for (unsigned threads : {1u, 8u}) {
    const ParseCounters before = ParseCounters::snap();
    try {
      load_test(path_, tiny_chunks(threads));
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), "parse error: row 102 of " + path_ +
                              " has 3 fields, expected 2");
    }
    const ParseCounters d = ParseCounters::snap().delta_since(before);
    EXPECT_EQ(d.lines_total, 101u) << "threads=" << threads;
    EXPECT_EQ(d.records, 100u);
    EXPECT_EQ(d.lines_rejected, 1u);
  }
}

TEST_F(IngestFileTest, RecordErrorPropagatesWithCounters) {
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 50; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "50," + std::string(kPoisonText) + "\n";
  for (std::uint64_t i = 51; i < 100; ++i)
    content += std::to_string(i) + ",ok\n";
  write(content);
  const ParseCounters before = ParseCounters::snap();
  try {
    load_test(path_, tiny_chunks(8));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "parse error: record 50 is poisoned");
  }
  const ParseCounters d = ParseCounters::snap().delta_since(before);
  EXPECT_EQ(d.lines_total, 51u);
  EXPECT_EQ(d.records, 50u);
  EXPECT_EQ(d.lines_rejected, 1u);
}

TEST_F(IngestFileTest, FirstBadRowInFileOrderWinsAcrossChunks) {
  // Two bad rows in different chunks: whatever order the workers hit
  // them, the error must name the earlier one, like the serial reader.
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 40; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "40," + std::string(kPoisonText) + "\n";  // earlier failure
  for (std::uint64_t i = 41; i < 80; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "80,too,many\n";  // later failure, different kind
  write(content);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      load_test(path_, tiny_chunks(8));
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), "parse error: record 40 is poisoned");
    }
  }
}

TEST_F(IngestFileTest, IngestCountersAdvance) {
  write("id,text\n1,a\n2,b\n");
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t bytes_before = m.counter("ingest.bytes_mapped").value();
  const std::uint64_t chunks_before = m.counter("ingest.chunks").value();
  load_test(path_, tiny_chunks(2));
  EXPECT_EQ(m.counter("ingest.bytes_mapped").value() - bytes_before,
            std::string("id,text\n1,a\n2,b\n").size());
  EXPECT_GE(m.counter("ingest.chunks").value() - chunks_before, 1u);
}

// ------------------------------------------- differential (hostile CSV)
//
// The cursor and the splitter find plain records and fields with memchr
// and fall back to the quote state machine only when a '"' appears.
// These tests feed seeded hostile CSV to both and require the same
// records, fields and errors as the state machine alone: the reference
// cursor below is the byte-wise loop, and util::split_csv_line always
// runs scan_csv_line.

/// Records of `data` by the byte-wise quote state machine alone.
std::vector<std::string> reference_records(std::string_view data) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t start = pos;
    bool in_quotes = false;
    std::size_t i = pos;
    for (; i < data.size(); ++i) {
      if (data[i] == '"')
        in_quotes = !in_quotes;
      else if (data[i] == '\n' && !in_quotes)
        break;
    }
    std::size_t end = i;
    pos = i < data.size() ? i + 1 : i;
    if (end > start && data[end - 1] == '\r') --end;
    out.emplace_back(data.substr(start, end - start));
  }
  return out;
}

/// Seeded generator of hostile CSV: "" escapes, quoted '\n' and "\r\n",
/// quoted commas, empty and trailing-comma fields, quotes in the middle
/// of unquoted text, CRLF line ends, unterminated quotes.
class HostileCsv {
 public:
  explicit HostileCsv(std::uint64_t seed) : rng_(seed) {}

  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  std::string text(std::string_view alphabet, std::size_t max_len) {
    std::string t;
    for (std::size_t n = pick(max_len + 1); n > 0; --n)
      t.push_back(alphabet[pick(alphabet.size())]);
    return t;
  }

  std::string field() {
    static constexpr std::string_view kPlain = "abcXYZ019 .:-_\r";
    static constexpr std::string_view kQuoted = "ab ,\n\r;\"";
    switch (pick(8)) {
      case 0: return "";
      case 1: return text(kPlain, 12);
      case 2: return "\"\"";
      case 3: return "\"" + text("a,b ", 6) + "\"";
      case 4: return "\"say \"\"" + text(kPlain, 4) + "\"\"\"";
      case 5: return "\"line\n" + text(kPlain, 4) + "\r\nend\"";
      case 6: {  // quoted text whose quotes are all escaped
        std::string q = "\"";
        for (char c : text(kQuoted, 10))
          q += c == '"' ? std::string("\"\"") : std::string(1, c);
        return q + "\"";
      }
      default:  // text both outside and inside quotes
        return text(kPlain, 3) + "\"" + text("x,\n", 3) + "\"" +
               text(kPlain, 3);
    }
  }

  /// One record with its terminator; `arity` 0 picks 1-6 fields.
  std::string record(std::size_t arity) {
    if (arity == 0) arity = 1 + pick(6);
    std::string r;
    for (std::size_t f = 0; f < arity; ++f) {
      if (f > 0) r += ',';
      r += field();
    }
    return r + (pick(3) == 0 ? "\r\n" : "\n");
  }

  /// A field whose opening quote never closes.
  std::string unterminated() { return "\"" + text("ab,\n\r", 8); }

 private:
  std::mt19937_64 rng_;
};

/// `records` hostile records of random arity; some documents lack the
/// final newline and some end in an unterminated quote.
std::string hostile_document(std::uint64_t seed, std::size_t records) {
  HostileCsv gen(seed);
  std::string doc;
  for (std::size_t i = 0; i < records; ++i) doc += gen.record(0);
  if (seed % 3 == 1 && !doc.empty()) {
    doc.pop_back();  // drop the final '\n' (a CRLF keeps its '\r')
  } else if (seed % 3 == 2) {
    doc += "x," + gen.unterminated();
  }
  return doc;
}

/// Fields of `line` as strings, or the ParseError text.
std::vector<std::string> split_or_error(std::string_view line, bool fast) {
  try {
    if (!fast) return util::split_csv_line(line);
    util::FieldVec fields;
    util::split_csv_fields(line, fields);
    return fields_as_strings(fields);
  } catch (const ParseError& e) {
    return {"<error>", e.what()};
  }
}

TEST(IngestCsvDifferential, CursorMatchesStateMachineAcrossChunks) {
  std::size_t records = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const std::string doc = hostile_document(seed, 500);
    const std::vector<std::string> reference = reference_records(doc);
    records += reference.size();
    ASSERT_EQ(records_of(doc), reference) << "seed=" << seed;
    // Chunk plans cut the document at record boundaries found by quote
    // parity; every record, including ones with quoted newlines, must
    // come out whole whichever chunk holds it.
    for (std::size_t target : {std::size_t{2}, std::size_t{7},
                               std::size_t{31}}) {
      ASSERT_EQ(records_via_chunks(doc, target, 1), reference)
          << "seed=" << seed << " target=" << target;
      for (const Chunk& chunk : plan_chunks(doc, target, 1))
        ASSERT_EQ(records_of(chunk.data), reference_records(chunk.data))
            << "seed=" << seed << " chunk=" << chunk.index;
    }
  }
  EXPECT_GE(records, 10000u);
}

TEST(IngestCsvDifferential, SplitterMatchesStateMachine) {
  std::size_t records = 0;
  std::size_t errors = 0;
  for (std::uint64_t seed = 100; seed < 124; ++seed) {
    HostileCsv gen(seed);
    std::vector<std::string> lines = reference_records(
        hostile_document(seed, 400));
    // Standalone lines: unterminated quotes, trailing commas, quote-free.
    for (int i = 0; i < 80; ++i) {
      lines.push_back(gen.record(0) + "," + gen.unterminated());
      lines.push_back(gen.text("ab,", 10) + ",");
      lines.push_back(gen.text("ab,\r", 10));
    }
    for (const std::string& line : lines) {
      const auto expected = split_or_error(line, false);
      ASSERT_EQ(split_or_error(line, true), expected) << "line=" << line;
      errors += !expected.empty() && expected[0] == "<error>";
    }
    records += lines.size();
  }
  EXPECT_GE(records, 10000u);
  EXPECT_GT(errors, 0u);
}

TEST_F(IngestFileTest, DifferentialLoadMatchesStateMachine) {
  // Fixed-arity hostile files through the whole engine. Seeds cycle
  // through a clean file, one with a wrong-arity row and one with an
  // unterminated quote mid-file; the expected records, error text and
  // row counts come from the reference cursor + split_csv_line.
  using Row = std::vector<std::string>;
  const std::vector<std::string> header = {"a", "b", "c", "d"};
  std::size_t records = 0;
  for (std::uint64_t seed = 200; seed < 209; ++seed) {
    HostileCsv gen(seed);
    std::string body;
    const std::size_t bad_row = 1200 + gen.pick(800);
    for (std::size_t i = 0; i < 2400; ++i) {
      if (i == bad_row && seed % 3 == 1)
        body += gen.record(5);
      else if (i == bad_row && seed % 3 == 2)
        body += "1,2,3," + gen.unterminated() + "\n";
      else
        body += gen.record(header.size());
    }
    write("a,b,c,d\r\n" + body);

    std::vector<Row> expected;
    std::string expected_error;
    std::size_t rows = 0;
    for (const std::string& record : reference_records(body)) {
      ++rows;
      Row fields;
      try {
        fields = util::split_csv_line(record);
      } catch (const ParseError& e) {
        expected_error = e.what();
        break;
      }
      if (fields.size() != header.size()) {
        expected_error = "parse error: row " + std::to_string(rows + 1) +
                         " of " + path_ + " has " +
                         std::to_string(fields.size()) +
                         " fields, expected 4";
        break;
      }
      expected.push_back(std::move(fields));
    }
    records += rows;
    EXPECT_EQ(expected_error.empty(), seed % 3 == 0) << "seed=" << seed;

    for (unsigned threads : {1u, 2u, 8u}) {
      LoadOptions options = tiny_chunks(threads);
      options.min_chunk_bytes = 4096;
      const std::uint64_t lines_before =
          obs::metrics().counter("parse.lines_total").value();
      std::string error;
      std::vector<Row> loaded;
      try {
        loaded = load_csv<Row>(
            path_, header, "testlog", "test log", kTestCounter,
            [](const util::FieldVec& f, Row& r) { r = fields_as_strings(f); },
            options);
      } catch (const ParseError& e) {
        error = e.what();
      }
      EXPECT_EQ(error, expected_error)
          << "seed=" << seed << " threads=" << threads;
      if (expected_error.empty()) EXPECT_EQ(loaded, expected);
      EXPECT_EQ(obs::metrics().counter("parse.lines_total").value() -
                    lines_before,
                rows)
          << "seed=" << seed << " threads=" << threads;
    }
  }
  EXPECT_GE(records, 10000u);
}

}  // namespace
}  // namespace failmine::ingest
