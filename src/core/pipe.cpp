#include "core/pipe.hpp"

#include <istream>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {

PipeBlockSource::PipeBlockSource(std::istream& in, PipeOptions options)
    : in_(in), options_(options) {
  if (options_.block_bytes == 0) throw util::ConfigError("--block must be > 0");
}

std::optional<JobInput> PipeBlockSource::next() {
  char chunk[65536];
  while (true) {
    // Emit a complete block as soon as enough data is buffered.
    while (pending_.size() >= options_.block_bytes) {
      // Cut at the last record separator within (or at) the block target;
      // if none exists yet, wait for more input (records are never split).
      std::size_t cut = pending_.rfind(options_.record_separator,
                                      options_.block_bytes - 1);
      if (cut == std::string::npos) {
        cut = pending_.find(options_.record_separator, options_.block_bytes);
        if (cut == std::string::npos) break;  // record still open
      }
      // The job takes the buffer itself; only the tail past the cut (less
      // than one read chunk) is copied back, into room for a whole block.
      JobInput job;
      job.stdin_data = std::move(pending_);
      job.has_stdin = true;
      pending_.clear();
      pending_.reserve(options_.block_bytes + sizeof(chunk));
      pending_.append(job.stdin_data, cut + 1);
      job.stdin_data.resize(cut + 1);
      return job;
    }
    if (eof_) break;
    if (in_.read(chunk, sizeof(chunk)) || in_.gcount() > 0) {
      pending_.append(chunk, static_cast<std::size_t>(in_.gcount()));
    } else {
      eof_ = true;
    }
  }
  if (pending_.empty()) return std::nullopt;
  JobInput job;
  job.stdin_data = std::move(pending_);
  job.has_stdin = true;
  pending_.clear();
  return job;
}

std::vector<std::string> split_blocks(std::istream& in, const PipeOptions& options) {
  PipeBlockSource source(in, options);
  std::vector<std::string> blocks;
  while (auto block = source.next()) {
    blocks.push_back(std::move(block->stdin_data));
  }
  return blocks;
}

std::size_t parse_block_size(const std::string& text) {
  std::string trimmed = util::trim(text);
  if (trimmed.empty()) throw util::ParseError("--block: empty size");
  std::size_t multiplier = 1;
  char suffix = trimmed.back();
  if (suffix == 'k' || suffix == 'K') {
    multiplier = 1024;
  } else if (suffix == 'm' || suffix == 'M') {
    multiplier = 1024 * 1024;
  } else if (suffix == 'g' || suffix == 'G') {
    multiplier = 1024 * 1024 * 1024;
  }
  std::string digits = multiplier == 1 ? trimmed : trimmed.substr(0, trimmed.size() - 1);
  long value = util::parse_long(digits);
  if (value <= 0) throw util::ParseError("--block must be positive");
  return static_cast<std::size_t>(value) * multiplier;
}

}  // namespace parcl::core
