// Minimal command-line flag parsing for the CLI tools (no external dependencies).
//
// Supports `--name value`, `--name=value`, bare boolean `--name`, and `--help`. '_' and '-' in
// a flag name are the same character, so `--trace_out` and `--trace-out` reach one flag.
// Each flag is bound to the variable it sets: registration writes the default there and
// Parse writes each given value, so a flag is named in one place only. Unknown flags and
// malformed values (including a number the variable cannot hold) fail parsing with a
// message; tools print Usage() and exit non-zero.
//
//   ExperimentOptions options;
//   FlagParser flags("tool", "what it does");
//   flags.Add("history", &options.history_requests, 80, "history requests");
//   flags.Add("map-precision", &options.map_precision, "fp32", ParseMapPrecision,
//             "fp32 | fp16 | int8", "store column precision");
#ifndef FMOE_SRC_UTIL_FLAGS_H_
#define FMOE_SRC_UTIL_FLAGS_H_

#include <charconv>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace fmoe {

class FlagParser {
 public:
  FlagParser(std::string program, std::string description);

  // Registers --name bound to *target (call before Parse; the target must outlive it).
  // *target receives `default_value` now and each value given on the command line. T is
  // std::string, bool, double or a signed or unsigned integer; an integer that does not fit T
  // is a parse error. Names are given without the leading dashes; Usage() lists them as
  // registered.
  template <typename T>
  void Add(const std::string& name, T* target, std::type_identity_t<T> default_value,
           const std::string& help);

  // Registers an enumerated flag: `parse(text, target)` (a `bool(name, T*)` parser such as
  // ParseRouterPolicy) sets *target and returns false for a name it does not know. The default
  // is parsed now; a bad value's error names the flag and lists `spellings`.
  template <typename T, typename ParseFn>
  void Add(const std::string& name, T* target, const std::string& default_value,
           ParseFn parse, const std::string& spellings, const std::string& help);

  // Parses argv. Returns false on error or when --help was requested; `error` (if non-null)
  // receives the diagnostic ("" for --help).
  bool Parse(int argc, const char* const* argv, std::string* error);
  // Parse() for a tool's main(): --help prints Usage() to stdout (exit status 0); an error
  // prints the diagnostic and Usage() to stderr (exit status 1). Returns true to go on;
  // otherwise *exit_code holds the status to exit with.
  bool ParseCommandLine(int argc, const char* const* argv, int* exit_code);

  std::string Usage() const;
  bool help_requested() const { return help_requested_; }

 private:
  struct Flag {
    std::string help;
    std::string default_text;
    std::string kind;      // What a bad value is called: "integer", "number", "value"...
    std::string expected;  // Accepted values, listed after a bad one ("" = none listed).
    bool is_bool = false;  // May be given bare (`--name` sets true).
    std::function<bool(const std::string&)> assign;  // Writes the target; false: bad value.
  };

  static std::string FormatDouble(double value);  // As `std::ostream << value` prints it.
  static bool ParseValue(const std::string& text, std::string* out);
  static bool ParseValue(const std::string& text, bool* out);
  static bool ParseValue(const std::string& text, double* out);
  template <typename T>
  static bool ParseValue(const std::string& text, T* out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
  }

  void Register(const std::string& name, Flag flag);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;  // Keyed by the name with every '_' made '-'.
  std::vector<std::string> order_;  // Registration order for Usage().
  bool help_requested_ = false;
};

template <typename T>
void FlagParser::Add(const std::string& name, T* target, std::type_identity_t<T> default_value,
                     const std::string& help) {
  Flag flag;
  flag.help = help;
  if constexpr (std::is_same_v<T, std::string>) {
    flag.default_text = default_value.empty() ? "\"\"" : default_value;
  } else if constexpr (std::is_same_v<T, bool>) {
    flag.default_text = default_value ? "true" : "false";
    flag.kind = "boolean";
    flag.is_bool = true;
  } else if constexpr (std::is_same_v<T, double>) {
    flag.default_text = FormatDouble(default_value);
    flag.kind = "number";
  } else {
    static_assert(std::is_integral_v<T>, "flag targets are strings, bools, doubles or integers");
    flag.default_text = std::to_string(default_value);
    flag.kind = "integer";
    flag.expected = std::to_string(std::numeric_limits<T>::min()) + ".." +
                    std::to_string(std::numeric_limits<T>::max());
  }
  *target = std::move(default_value);
  flag.assign = [target](const std::string& text) { return ParseValue(text, target); };
  Register(name, std::move(flag));
}

template <typename T, typename ParseFn>
void FlagParser::Add(const std::string& name, T* target, const std::string& default_value,
                     ParseFn parse, const std::string& spellings, const std::string& help) {
  FMOE_CHECK_MSG(parse(default_value, target),
                 "default '" << default_value << "' of --" << name << " does not parse");
  Register(name, Flag{.help = help,
                      .default_text = default_value,
                      .kind = "value",
                      .expected = spellings,
                      .assign = [target, parse](const std::string& text) {
                        return parse(text, target);
                      }});
}

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_FLAGS_H_
