// Line/field scanner shared by the line-oriented numeric readers (edge-list
// text, Matrix Market entries, GraphChallenge TSV triples). Internal to
// src/io. It walks the document in place as string_views, so a parse makes
// no copy of the text and no allocation per line.
//
// Lines match std::getline over the whole text: a line ends at '\n' only, a
// final line without '\n' still counts, and every physical line (blank and
// comment lines included) advances line_no(). Fields are runs of bytes
// outside the C-locale isspace set " \t\n\v\f\r", so the '\r' of a CRLF
// ending is trailing space and an embedded NUL is field content.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ubigraph::io::internal {

constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Upper bound on the records `text` can hold, for a one-time reserve:
/// one per line, and never more than one per 4 bytes (the shortest record,
/// "1 2\n"), so hostile bytes cannot reserve more than 4 B per input byte.
inline size_t RecordCapacity(std::string_view text) {
  size_t newlines = 0;
  for (char c : text) newlines += c == '\n';
  return std::min(newlines + 1, text.size() / 4 + 1);
}

class RecordScanner {
 public:
  /// Fields split per line. num_fields() saturates here, which is enough
  /// for readers of at most 3 fields to see "too many".
  static constexpr size_t kMaxFields = 4;
  /// NextRecord() argument for formats without comment lines.
  static constexpr char kNoComment = '\0';

  explicit RecordScanner(std::string_view text) : rest_(text) {}

  /// Advances to the next physical line; false at the end of the text.
  bool NextLine(std::string_view* line) {
    if (rest_.empty()) return false;
    const void* nl = std::memchr(rest_.data(), '\n', rest_.size());
    const size_t len = nl == nullptr ? rest_.size()
                                     : static_cast<const char*>(nl) - rest_.data();
    *line = rest_.substr(0, len);
    rest_.remove_prefix(nl == nullptr ? len : len + 1);
    ++line_no_;
    return true;
  }

  /// Advances to the next line that has a field and whose first field does
  /// not start with `comment`, and splits it; false at the end of the text.
  bool NextRecord(char comment) {
    std::string_view line;
    while (NextLine(&line)) {
      Split(line);
      if (num_fields_ > 0 && (comment == kNoComment || fields_[0][0] != comment)) {
        return true;
      }
    }
    return false;
  }

  size_t line_no() const { return line_no_; }
  size_t num_fields() const { return num_fields_; }
  std::string_view field(size_t i) const { return fields_[i]; }
  /// ParseInt64 of field(i), inlined: a field has no spaces to trim.
  bool FieldInt64(size_t i, int64_t* out) const {
    const char* end = fields_[i].data() + fields_[i].size();
    auto [ptr, ec] = std::from_chars(fields_[i].data(), end, *out);
    return ec == std::errc() && ptr == end;
  }
  /// The text after the current line.
  std::string_view rest() const { return rest_; }

  /// ParseError "line N: what" for the current line.
  Status Error(const std::string& what) const {
    return Status::ParseError("line " + std::to_string(line_no_) + ": " + what);
  }

 private:
  void Split(std::string_view line) {
    const char* p = line.data();
    const char* const end = p + line.size();
    num_fields_ = 0;
    while (num_fields_ < kMaxFields) {
      while (p < end && IsSpace(*p)) ++p;
      if (p == end) break;
      const char* start = p;
      while (p < end && !IsSpace(*p)) ++p;
      fields_[num_fields_++] =
          std::string_view(start, static_cast<size_t>(p - start));
    }
  }

  std::string_view rest_;
  size_t line_no_ = 0;
  size_t num_fields_ = 0;
  std::string_view fields_[kMaxFields];
};

}  // namespace ubigraph::io::internal
