#pragma once

#include <cstdlib>
#include <optional>
#include <string>

/// Sets one environment variable for a scope (nullptr unsets it) and
/// restores its prior value, or its absence, on exit. Knobs are read from
/// the environment at every construction, so a test can flip one mid-binary.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};
