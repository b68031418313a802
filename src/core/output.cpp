#include "core/output.hpp"

#include <algorithm>

namespace parcl::core {

OutputCollator::OutputCollator(OutputMode mode, bool tag, std::ostream& out,
                               std::ostream& err)
    : OutputCollator(mode,
                     tag ? TagFn([](const JobResult& result) {
                       return result.args.empty() ? std::string() : result.args.front();
                     })
                         : TagFn(),
                     out, err) {}

OutputCollator::OutputCollator(OutputMode mode, TagFn tag, std::ostream& out,
                               std::ostream& err)
    : mode_(mode), tag_(std::move(tag)), out_(out), err_(err) {}

void OutputCollator::emit(const JobResult& result) {
  // Every line leaves '\n'-terminated: the job's buffer goes out in one
  // write, plus a '\n' only when its last line is open. Tagged output is
  // built whole first, then written once.
  auto write_stream = [&](std::ostream& stream, const std::string& data, bool count) {
    if (data.empty()) return;
    const bool open_last = data.back() != '\n';
    std::string prefix;
    if (tag_) {
      prefix = tag_(result);
      if (!prefix.empty()) prefix += "\t";
    }
    const auto lines = static_cast<std::size_t>(
        std::count(data.begin(), data.end(), '\n') + (open_last ? 1 : 0));
    if (count) lines_emitted_ += lines;
    if (prefix.empty()) {
      stream.write(data.data(), static_cast<std::streamsize>(data.size()));
      if (open_last) stream.put('\n');
      return;
    }
    std::string tagged;
    tagged.reserve(data.size() + (open_last ? 1 : 0) + lines * prefix.size());
    std::size_t start = 0;
    while (start < data.size()) {
      std::size_t end = data.find('\n', start);
      if (end == std::string::npos) end = data.size();
      tagged += prefix;
      tagged.append(data, start, end - start);
      tagged += '\n';
      start = end + 1;
    }
    stream.write(tagged.data(), static_cast<std::streamsize>(tagged.size()));
  };
  write_stream(out_, result.stdout_data, true);
  write_stream(err_, result.stderr_data, false);
}

void OutputCollator::advance() {
  while (true) {
    auto held = held_.find(next_seq_);
    if (held != held_.end()) {
      emit(held->second);
      held_.erase(held);
      ++next_seq_;
      continue;
    }
    auto absent = absent_.find(next_seq_);
    if (absent != absent_.end()) {
      absent_.erase(absent);
      ++next_seq_;
      continue;
    }
    return;
  }
}

void OutputCollator::deliver(const JobResult& result) {
  if (mode_ == OutputMode::kUngroup) return;  // children wrote directly
  if (mode_ != OutputMode::kKeepOrder) {
    emit(result);
    return;
  }
  if (result.seq == next_seq_) {
    emit(result);
    ++next_seq_;
    advance();
  } else {
    held_.emplace(result.seq, result);
  }
}

void OutputCollator::mark_absent(std::uint64_t seq) {
  if (mode_ != OutputMode::kKeepOrder) return;
  if (seq == next_seq_) {
    ++next_seq_;
    advance();
  } else {
    absent_.emplace(seq, true);
  }
}

void OutputCollator::finish() {
  // Emit whatever remains in seq order; gaps at this point mean the engine
  // halted, and parallel flushes completed jobs' output on halt too.
  for (auto& [seq, result] : held_) emit(result);
  held_.clear();
  absent_.clear();
}

}  // namespace parcl::core
