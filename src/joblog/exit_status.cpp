#include "joblog/exit_status.hpp"

#include <cstddef>
#include <iterator>

#include "util/error.hpp"

namespace failmine::joblog {

namespace {

// Spellings indexed by the enum's value; both directions read it.
constexpr std::string_view kExitClassNames[] = {
    "SUCCESS",        "USER_APP_ERROR",  "USER_CONFIG_ERROR", "USER_KILL",
    "WALLTIME_LIMIT", "SYSTEM_HARDWARE", "SYSTEM_SOFTWARE",   "SYSTEM_IO"};
static_assert(std::size(kExitClassNames) == std::size(kAllExitClasses));

}  // namespace

std::string exit_class_name(ExitClass cls) {
  const auto i = static_cast<std::size_t>(cls);
  if (i >= std::size(kExitClassNames))
    throw failmine::DomainError("unknown exit class");
  return std::string(kExitClassNames[i]);
}

ExitClass exit_class_from_name(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kExitClassNames); ++i)
    if (kExitClassNames[i] == name) return static_cast<ExitClass>(i);
  throw failmine::ParseError("unknown exit class: '" + std::string(name) + "'");
}

bool is_failure(ExitClass cls) { return cls != ExitClass::kSuccess; }

bool is_user_caused(ExitClass cls) {
  switch (cls) {
    case ExitClass::kUserAppError:
    case ExitClass::kUserConfigError:
    case ExitClass::kUserKill:
    case ExitClass::kWalltimeLimit:
      return true;
    default:
      return false;
  }
}

bool is_system_caused(ExitClass cls) {
  switch (cls) {
    case ExitClass::kSystemHardware:
    case ExitClass::kSystemSoftware:
    case ExitClass::kSystemIo:
      return true;
    default:
      return false;
  }
}

ExitClass classify_exit(int exit_code, int signal, bool system_attributed,
                        bool io_attributed, bool software_attributed) {
  if (system_attributed) {
    if (io_attributed) return ExitClass::kSystemIo;
    if (software_attributed) return ExitClass::kSystemSoftware;
    return ExitClass::kSystemHardware;
  }
  if (exit_code == 0 && signal == 0) return ExitClass::kSuccess;
  if (exit_code == 24) return ExitClass::kWalltimeLimit;  // Cobalt walltime marker
  if (signal == 2 || signal == 15) return ExitClass::kUserKill;
  if (exit_code >= 125 && exit_code < 128) return ExitClass::kUserConfigError;
  return ExitClass::kUserAppError;
}

}  // namespace failmine::joblog
