#ifndef EMSIM_SWEEP_SUBPROCESS_H_
#define EMSIM_SWEEP_SUBPROCESS_H_

#include <string>
#include <sys/types.h>
#include <vector>

#include "util/status.h"

namespace emsim::sweep {

/// A spawned worker process (POSIX fork/exec). Non-blocking by design: the
/// dispatcher polls many workers from one thread. The child leads its own
/// process group, so a kill reaches everything it spawned, and a terminal's
/// Ctrl-C reaches only the parent. The destructor kills and reaps a
/// still-running child so a dispatcher unwind cannot leak zombies.
class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Spawns `argv` (argv[0] is the executable, resolved via PATH). The
  /// child inherits the parent's environment and stdio.
  static Result<Subprocess> Start(const std::vector<std::string>& argv);

  /// Reaps the child if it has exited; returns true once it is done
  /// (thereafter exit state is readable). Never blocks.
  bool Poll();

  /// SIGKILLs a running child's whole process group: the child and every
  /// descendant that stayed in it (the exit is still collected via Poll).
  void Kill();

  bool running() const { return pid_ > 0 && !done_; }
  pid_t pid() const { return pid_; }

  /// Valid after Poll() returned true.
  bool exited_cleanly() const { return done_ && !signaled_ && exit_code_ == 0; }
  bool was_signaled() const { return signaled_; }
  int exit_code() const { return exit_code_; }

  /// "exit 3" / "signal 9" — for dispatcher diagnostics.
  std::string DescribeExit() const;

 private:
  pid_t pid_ = -1;
  bool done_ = false;
  bool signaled_ = false;
  int exit_code_ = 0;  ///< Exit status, or the terminating signal number.
};

}  // namespace emsim::sweep

#endif  // EMSIM_SWEEP_SUBPROCESS_H_
