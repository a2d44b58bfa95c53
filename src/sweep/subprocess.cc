#include "sweep/subprocess.h"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "util/str.h"

namespace emsim::sweep {

Subprocess::~Subprocess() {
  if (running()) {
    Kill();
    // Blocking reap on teardown only: the child was just SIGKILLed, so this
    // cannot hang, and it keeps destruction zombie-free.
    int status = 0;
    (void)waitpid(pid_, &status, 0);
    done_ = true;
  }
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), done_(other.done_), signaled_(other.signaled_),
      exit_code_(other.exit_code_) {
  other.pid_ = -1;
  other.done_ = false;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    this->~Subprocess();
    pid_ = other.pid_;
    done_ = other.done_;
    signaled_ = other.signaled_;
    exit_code_ = other.exit_code_;
    other.pid_ = -1;
    other.done_ = false;
  }
  return *this;
}

Result<Subprocess> Subprocess::Start(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    return Status::InvalidArgument("subprocess: empty argv");
  }
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    c_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  c_argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    return Status::Internal("subprocess: fork failed");
  }
  if (pid == 0) {
    (void)setpgid(0, 0);
    execvp(c_argv[0], c_argv.data());
    _exit(127);  // exec failed; 127 matches the shell convention.
  }
  // Both sides set the group so it exists before either returns, whichever
  // runs first; the parent's call fails harmlessly once the child has
  // exec'd.
  (void)setpgid(pid, pid);
  Subprocess child;
  child.pid_ = pid;
  return child;
}

bool Subprocess::Poll() {
  if (done_) {
    return true;
  }
  if (pid_ <= 0) {
    return false;
  }
  int status = 0;
  pid_t got = waitpid(pid_, &status, WNOHANG);
  if (got != pid_) {
    return false;
  }
  done_ = true;
  if (WIFSIGNALED(status)) {
    signaled_ = true;
    exit_code_ = WTERMSIG(status);
  } else {
    exit_code_ = WEXITSTATUS(status);
  }
  return true;
}

void Subprocess::Kill() {
  if (running() && kill(-pid_, SIGKILL) != 0) {
    (void)kill(pid_, SIGKILL);  // no group (setpgid failed): the child alone
  }
}

std::string Subprocess::DescribeExit() const {
  if (!done_) {
    return "still running";
  }
  return StrFormat(signaled_ ? "signal %d" : "exit %d", exit_code_);
}

}  // namespace emsim::sweep
