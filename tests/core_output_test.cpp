#include "core/output.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <streambuf>
#include <string>

#include "util/strings.hpp"

namespace parcl::core {
namespace {

JobResult result_with(std::uint64_t seq, const std::string& out,
                      const std::string& err = "",
                      const std::string& first_arg = "") {
  JobResult result;
  result.seq = seq;
  result.status = JobStatus::kSuccess;
  result.stdout_data = out;
  result.stderr_data = err;
  if (!first_arg.empty()) result.args = {first_arg};
  return result;
}

TEST(GroupMode, EmitsInCompletionOrder) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(2, "second\n"));
  collator.deliver(result_with(1, "first\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "second\nfirst\n");
}

TEST(KeepOrder, ReordersToInputOrder) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(3, "c\n"));
  collator.deliver(result_with(1, "a\n"));
  collator.deliver(result_with(2, "b\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "a\nb\nc\n");
}

TEST(KeepOrder, AbsentSeqsDoNotBlock) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(3, "c\n"));
  collator.mark_absent(1);
  collator.mark_absent(2);
  collator.finish();
  EXPECT_EQ(out.str(), "c\n");
}

TEST(KeepOrder, AbsentBeforeDeliveryAlsoWorks) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.mark_absent(1);
  collator.deliver(result_with(2, "b\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "b\n");
}

TEST(KeepOrder, FinishFlushesHeldResults) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(5, "five\n"));  // 1-4 never arrive
  EXPECT_EQ(out.str(), "");
  collator.finish();
  EXPECT_EQ(out.str(), "five\n");
}

TEST(Tag, PrefixesEveryLineWithFirstArg) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, true, out, err);
  collator.deliver(result_with(1, "l1\nl2\n", "e1\n", "input-a"));
  EXPECT_EQ(out.str(), "input-a\tl1\ninput-a\tl2\n");
  EXPECT_EQ(err.str(), "input-a\te1\n");
}

TEST(StderrRouting, GoesToErrStream) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(1, "", "problem\n"));
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(err.str(), "problem\n");
}

TEST(Ungroup, EmitsNothing) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kUngroup, false, out, err);
  collator.deliver(result_with(1, "ignored\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(collator.lines_emitted(), 0u);
}

TEST(LineCount, CountsStdoutLines) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(1, "a\nb\nc\n", "e\n"));
  EXPECT_EQ(collator.lines_emitted(), 3u);  // stderr not counted
}

TEST(MissingTrailingNewline, StillEmitsWholeLine) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(1, "no-newline"));
  EXPECT_EQ(out.str(), "no-newline\n");
}

// Byte identity with the line-by-line rule the collator has always had:
// every line of the job's buffer goes out with the prefix and a '\n', an
// open last line included. `reference` spells that rule out with
// split_lines; emit() must match it while writing each buffer once.
std::string reference(const std::string& data, const std::string& prefix) {
  std::string out;
  for (const auto& line : util::split_lines(data)) out += prefix + line + '\n';
  return out;
}

struct IdentityCase {
  const char* label;
  std::string data;
};

void PrintTo(const IdentityCase& c, std::ostream* os) { *os << c.label; }

class CollatorIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(CollatorIdentity, UntaggedMatchesLineRule) {
  const std::string& data = GetParam().data;
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(1, data, data));
  EXPECT_EQ(out.str(), reference(data, ""));
  EXPECT_EQ(err.str(), reference(data, ""));
  EXPECT_EQ(collator.lines_emitted(), util::split_lines(data).size());
}

TEST_P(CollatorIdentity, TaggedMatchesLineRule) {
  const std::string& data = GetParam().data;
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, true, out, err);
  collator.deliver(result_with(1, data, data, "arg"));
  EXPECT_EQ(out.str(), reference(data, "arg\t"));
  EXPECT_EQ(err.str(), reference(data, "arg\t"));
  EXPECT_EQ(collator.lines_emitted(), util::split_lines(data).size());
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, CollatorIdentity,
    ::testing::Values(IdentityCase{"closed", "a\nb\n"},
                      IdentityCase{"open_last_line", "a\nb"},
                      IdentityCase{"blank_lines", "\n\na\n\n\nb\n"},
                      IdentityCase{"only_newline", "\n"},
                      IdentityCase{"crlf", "a\r\nb\r\n\r"},
                      IdentityCase{"nul_records", std::string("a\0b\0\0c", 6)},
                      IdentityCase{"nul_then_newline", std::string("a\0\nb\0", 5)}),
    [](const ::testing::TestParamInfo<IdentityCase>& info) {
      return std::string(info.param.label);
    });

TEST(Tag, OpenLastLineGetsPrefixAndNewline) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, true, out, err);
  collator.deliver(result_with(1, "l1\n\nl3", "e1", "t"));
  EXPECT_EQ(out.str(), "t\tl1\nt\t\nt\tl3\n");
  EXPECT_EQ(err.str(), "t\te1\n");
  EXPECT_EQ(collator.lines_emitted(), 3u);
}

TEST(StderrRouting, OpenLastLineClosedAndNotCounted) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(1, "", "e1\n\ne3"));
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(err.str(), "e1\n\ne3\n");
  EXPECT_EQ(collator.lines_emitted(), 0u);
}

/// Unbuffered sink that counts every call the stream makes into it.
class CallCountingBuf : public std::streambuf {
 public:
  std::string data;
  int calls = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++calls;
    data.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    ++calls;
    data.push_back(traits_type::to_char_type(ch));
    return ch;
  }
};

TEST(WriteCalls, UntaggedJobLeavesInOneWrite) {
  std::string job;
  for (int i = 0; i < 1000; ++i) job += "line " + std::to_string(i) + "\n";
  CallCountingBuf sink;
  std::ostream out(&sink);
  std::ostringstream err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(1, job));
  EXPECT_EQ(sink.data, job);
  EXPECT_LE(sink.calls, 2);
  EXPECT_EQ(collator.lines_emitted(), 1000u);
}

// Property: keep-order output equals seq-sorted output for any completion
// permutation of 7 jobs.
class KeepOrderPermutation : public ::testing::TestWithParam<int> {};

TEST_P(KeepOrderPermutation, OutputSortedBySeq) {
  std::vector<std::uint64_t> order{1, 2, 3, 4, 5, 6, 7};
  // Derive a permutation from the parameter.
  int p = GetParam();
  for (std::size_t i = order.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(p) % i;
    std::swap(order[i - 1], order[j]);
    p = p * 31 + 7;
  }
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  for (std::uint64_t seq : order) {
    collator.deliver(result_with(seq, std::to_string(seq) + "\n"));
  }
  collator.finish();
  EXPECT_EQ(out.str(), "1\n2\n3\n4\n5\n6\n7\n");
}

INSTANTIATE_TEST_SUITE_P(Permutations, KeepOrderPermutation,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace parcl::core
