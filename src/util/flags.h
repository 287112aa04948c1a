// Minimal command-line flag parsing for the CLI tools (no external dependencies).
//
// Supports `--name value`, `--name=value`, bare boolean `--name`, and `--help`. '_' and '-' in
// a flag name are the same character, so `--trace_out` and `--trace-out` reach one flag.
// Unknown flags and malformed values fail parsing with a message; tools print Usage() and exit
// non-zero.
#ifndef FMOE_SRC_UTIL_FLAGS_H_
#define FMOE_SRC_UTIL_FLAGS_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace fmoe {

class FlagParser {
 public:
  FlagParser(std::string program, std::string description);

  // Flag registration (call before Parse). Names are given without the leading dashes;
  // Usage() lists them as registered.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  void AddInt(const std::string& name, int64_t default_value, const std::string& help);
  void AddDouble(const std::string& name, double default_value, const std::string& help);
  void AddBool(const std::string& name, bool default_value, const std::string& help);

  // Parses argv. Returns false on error or when --help was requested; `error` (if non-null)
  // receives the diagnostic ("" for --help).
  bool Parse(int argc, const char* const* argv, std::string* error);
  // Parse() for a tool's main(): --help prints Usage() to stdout (exit status 0); an error
  // prints the diagnostic and Usage() to stderr (exit status 1). Returns true to go on;
  // otherwise *exit_code holds the status to exit with.
  bool ParseCommandLine(int argc, const char* const* argv, int* exit_code);

  // Typed accessors; the flag must have been registered with the matching type.
  const std::string& GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  bool WasSet(const std::string& name) const;

  std::string Usage() const;
  bool help_requested() const { return help_requested_; }

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string help;
    std::string default_text;
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    bool set = false;
  };

  void Register(const std::string& name, Flag flag);
  const Flag& Require(const std::string& name, Type type) const;
  bool AssignValue(Flag* flag, const std::string& name, const std::string& value,
                   std::string* error);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;  // Keyed by the name with every '_' made '-'.
  std::vector<std::string> order_;  // Registration order for Usage().
  bool help_requested_ = false;
};

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_FLAGS_H_
