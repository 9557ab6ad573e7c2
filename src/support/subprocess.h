// Subprocess spawn/reap helper for the dispatch orchestrator.
//
// A thin POSIX wrapper sized for process fan-out: spawn an argv vector
// without a shell, with pipes on the child's stdin and stdout (the session
// protocol's channel), poll for exit without blocking (the orchestrator
// multiplexes many children from one thread), kill on timeout, and render
// exit statuses for failure reports. Exec failures surface as exit code 127
// (the shell convention) rather than an exception, because by then the
// failure belongs to the child. The parent end of the stdout pipe is
// non-blocking so the orchestrator's single-threaded poll loop can drain
// many sessions without stalling on a quiet one. Teardown prefers
// terminate_gracefully — SIGTERM, a short grace period, then SIGKILL — so a
// worker wrapped in a forwarding parent (an ssh client, a shell trap) gets a
// chance to propagate the kill to the real process; SIGKILL cannot be
// forwarded by anything.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace cicmon::support {

// Handle to one spawned child. Default-constructed handles are invalid;
// after poll()/wait() reports the exit, the handle is invalid again (the
// child has been reaped exactly once). The handle exclusively owns the
// parent ends of any stdio pipes, so it is move-only; destruction closes
// the pipes but never reaps (an abandoned child is the caller's bug, and
// blocking in a destructor would hide it).
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(pid_t pid, int stdin_fd, int stdout_fd)
      : pid_(pid), stdin_fd_(stdin_fd), stdout_fd_(stdout_fd) {}
  ~ChildProcess() { close_pipes(); }

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ChildProcess(ChildProcess&& other) noexcept { *this = std::move(other); }
  ChildProcess& operator=(ChildProcess&& other) noexcept {
    if (this != &other) {
      close_pipes();
      pid_ = other.pid_;
      stdin_fd_ = other.stdin_fd_;
      stdout_fd_ = other.stdout_fd_;
      other.pid_ = -1;
      other.stdin_fd_ = -1;
      other.stdout_fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  // Parent ends of the child's stdio pipes; -1 once closed.
  int stdin_fd() const { return stdin_fd_; }
  int stdout_fd() const { return stdout_fd_; }

  // Closes the parent's write end of the child's stdin — the child sees EOF,
  // the idiomatic "no more requests" signal. Idempotent.
  void close_stdin();
  // Closes both pipe ends (stdin EOF + stop reading stdout). Idempotent;
  // called automatically by terminate_gracefully.
  void close_pipes();

  // Non-blocking reap: returns true once the child has exited and stores the
  // raw waitpid status in `raw_status`; false while it is still running.
  // Throws CicError when the handle is invalid or waitpid fails.
  bool poll(int* raw_status);

  // Blocking reap; returns the raw waitpid status.
  int wait();

  // SIGTERM — the polite half of teardown. The caller still reaps.
  void kill_soft();

  // SIGKILL. The caller still reaps the corpse via poll()/wait().
  void kill_hard();

  // Graceful teardown: close the pipes, SIGTERM, poll for up to
  // `grace_seconds`, then SIGKILL; blocks until the child is reaped and
  // returns the raw exit status. The grace period is what lets template
  // transports (ssh wrappers, shell traps) forward the termination to a
  // remote worker — see transport.h for the caveat on what SIGKILL reaches.
  int terminate_gracefully(double grace_seconds);

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
};

// fork + execvp of `argv` (argv[0] is the program, PATH-resolved) with pipes
// on the child's stdin and stdout (its stderr stays inherited, so worker
// diagnostics reach the operator). The parent's read end is O_NONBLOCK and
// both parent ends are close-on-exec so sibling workers cannot hold each
// other's pipes open. Throws CicError when argv is empty or pipe/fork fails;
// an exec failure makes the child exit 127.
ChildProcess spawn_process_piped(const std::vector<std::string>& argv);

// Writes all of `data` to `fd`, retrying short writes and EINTR. Returns
// false when the peer is gone (EPIPE & friends) — the caller tears the
// session down. SIGPIPE is disarmed process-wide on first use.
bool write_all(int fd, std::string_view data);

// Drains whatever is currently readable from a non-blocking `fd` into
// `out` (appending). Returns false once the peer has closed the pipe (EOF);
// true while the pipe is still open, whether or not bytes arrived.
bool read_available(int fd, std::string* out);

// True when the status is a normal exit with code 0.
bool exit_ok(int raw_status);

// "exit code 3", "signal 9 (killed)" — for failure reports.
std::string describe_exit(int raw_status);

// Absolute path of the running binary (/proc/self/exe), falling back to
// `argv0` when the link cannot be read. Lets the orchestrator respawn
// itself as workers regardless of how it was invoked.
std::string current_executable(const char* argv0);

// POSIX-sh quoting: returns `word` unchanged when it is safe as a bare
// token, otherwise single-quoted (with embedded quotes escaped).
std::string shell_quote(std::string_view word);

// Space-joined shell_quote of every element — an argv as one sh command.
std::string shell_join(const std::vector<std::string>& argv);

}  // namespace cicmon::support
