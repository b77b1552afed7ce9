// A tiny, dependency-free CLI argument parser used by the examples and
// bench harnesses. Accepts `--key=value`, `--key value` and boolean
// `--flag` forms; everything else is collected as a positional argument.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace seg {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  // Typed getters with defaults. Malformed values ("10x", overflow, a
  // boolean that is none of true/false/1/0/yes/no/on/off) fall back to
  // the default AND record a message in errors(); harnesses that care
  // check errors() after reading their flags and refuse to run, instead
  // of silently proceeding with a default the user never asked for.
  std::string get_string(const std::string& key, std::string def = "") const;
  std::int64_t get_int(const std::string& key, std::int64_t def = 0) const;
  // Counts and seeds: a negative value is malformed, never wrapped.
  std::uint64_t get_u64(const std::string& key, std::uint64_t def = 0) const;
  double get_double(const std::string& key, double def = 0.0) const;
  bool get_bool(const std::string& key, bool def = false) const;

  // One "--key: <reason>: '<token>'" line per malformed value seen by the
  // typed getters above, in call order.
  const std::vector<std::string>& errors() const { return errors_; }
  // Prints errors() to stderr, one line each; true iff there were any.
  // The harnesses' "read every flag, then refuse to run" check.
  bool report_errors() const;

  // Flags given on the command line that no getter or has() has asked
  // about so far, in sorted order. Read every flag first: whatever is
  // left is a flag the program does not know (a typo, usually).
  std::vector<std::string> unread() const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_; }

 private:
  // The typed getters' shared path: mark `key` read and parse its value,
  // recording an error and returning `def` if it is malformed.
  template <typename T>
  T get_checked(const std::string& key, T def,
                bool (*parse)(const std::string&, T*, std::string*)) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // Getters are const accessors of parse-time state; the error log and
  // the set of keys asked about are bookkeeping they append to lazily.
  mutable std::vector<std::string> errors_;
  mutable std::set<std::string> read_;
};

}  // namespace seg
