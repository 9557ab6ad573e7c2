#include "support/subprocess.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/error.h"

namespace cicmon::support {
namespace {

void close_fd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

// A write to a session whose worker just died must surface as EPIPE, not
// kill the orchestrator; disarmed once, lazily, from write_all.
void ignore_sigpipe() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

std::vector<char*> raw_argv(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  return raw;
}

}  // namespace

bool ChildProcess::poll(int* raw_status) {
  check(valid(), "poll on an invalid child process handle");
  int status = 0;
  pid_t got = 0;
  do {
    got = ::waitpid(pid_, &status, WNOHANG);
  } while (got < 0 && errno == EINTR);
  if (got == 0) return false;
  check(got == pid_, std::string("waitpid failed: ") + std::strerror(errno));
  pid_ = -1;
  close_pipes();
  *raw_status = status;
  return true;
}

int ChildProcess::wait() {
  check(valid(), "wait on an invalid child process handle");
  int status = 0;
  pid_t got = 0;
  do {
    got = ::waitpid(pid_, &status, 0);
  } while (got < 0 && errno == EINTR);
  check(got == pid_, std::string("waitpid failed: ") + std::strerror(errno));
  pid_ = -1;
  close_pipes();
  return status;
}

void ChildProcess::close_stdin() { close_fd(&stdin_fd_); }

void ChildProcess::close_pipes() {
  close_fd(&stdin_fd_);
  close_fd(&stdout_fd_);
}

void ChildProcess::kill_soft() {
  if (valid()) ::kill(pid_, SIGTERM);
}

void ChildProcess::kill_hard() {
  if (valid()) ::kill(pid_, SIGKILL);
}

int ChildProcess::terminate_gracefully(double grace_seconds) {
  check(valid(), "terminate_gracefully on an invalid child process handle");
  close_pipes();
  kill_soft();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(grace_seconds));
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (poll(&status)) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_hard();
  return wait();
}

ChildProcess spawn_process_piped(const std::vector<std::string>& argv) {
  check(!argv.empty(), "spawn_process_piped needs a non-empty argv");
  int to_child[2] = {-1, -1};    // parent writes [1] -> child stdin [0]
  int from_child[2] = {-1, -1};  // child stdout [1] -> parent reads [0]
  check(::pipe(to_child) == 0, std::string("pipe failed: ") + std::strerror(errno));
  if (::pipe(from_child) != 0) {
    const int saved = errno;
    close_fd(&to_child[0]);
    close_fd(&to_child[1]);
    throw CicError(std::string("pipe failed: ") + std::strerror(saved));
  }
  std::vector<char*> raw = raw_argv(argv);

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    close_fd(&to_child[0]);
    close_fd(&to_child[1]);
    close_fd(&from_child[0]);
    close_fd(&from_child[1]);
    throw CicError(std::string("fork failed: ") + std::strerror(saved));
  }
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execvp(raw[0], raw.data());
    // Exec failed; 127 is the shell's "command not found" convention and is
    // what the orchestrator's retry reports will show.
    ::_exit(127);
  }
  close_fd(&to_child[0]);
  close_fd(&from_child[1]);
  // Close-on-exec keeps later-spawned siblings from holding this session's
  // pipes open (a dead worker must read as EOF, not hang); non-blocking read
  // lets one poll loop drain many quiet sessions.
  ::fcntl(to_child[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(from_child[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(from_child[0], F_SETFL, O_NONBLOCK);
  return ChildProcess(pid, to_child[1], from_child[0]);
}

bool write_all(int fd, std::string_view data) {
  ignore_sigpipe();
  if (fd < 0) return false;
  while (!data.empty()) {
    const ssize_t wrote = ::write(fd, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE, EBADF, ... — the session is gone either way
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
  return true;
}

bool read_available(int fd, std::string* out) {
  if (fd < 0) return false;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::read(fd, buffer, sizeof buffer);
    if (got > 0) {
      out->append(buffer, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) return false;  // EOF — the peer closed its end
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // open but quiet
    return false;  // EIO/EBADF/...: the pipe is unusable — same as peer gone
  }
}

bool exit_ok(int raw_status) {
  return WIFEXITED(raw_status) && WEXITSTATUS(raw_status) == 0;
}

std::string describe_exit(int raw_status) {
  if (WIFEXITED(raw_status)) {
    return "exit code " + std::to_string(WEXITSTATUS(raw_status));
  }
  if (WIFSIGNALED(raw_status)) {
    const int sig = WTERMSIG(raw_status);
    const char* name = strsignal(sig);
    return "signal " + std::to_string(sig) + " (" + (name != nullptr ? name : "?") + ")";
  }
  return "status " + std::to_string(raw_status);
}

std::string current_executable(const char* argv0) {
  char buffer[4096];
  const ssize_t got = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (got > 0) return std::string(buffer, static_cast<std::size_t>(got));
  return argv0 != nullptr ? std::string(argv0) : std::string("cicmon");
}

std::string shell_quote(std::string_view word) {
  const bool safe =
      !word.empty() &&
      word.find_first_not_of(
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
          "._-+/=:,@%") == std::string_view::npos;
  if (safe) return std::string(word);
  std::string quoted = "'";
  for (const char c : word) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

std::string shell_join(const std::vector<std::string>& argv) {
  std::string joined;
  for (const std::string& arg : argv) {
    if (!joined.empty()) joined += ' ';
    joined += shell_quote(arg);
  }
  return joined;
}

}  // namespace cicmon::support
