#include "dist/transport.h"

#include "support/error.h"

namespace cicmon::dist {

Transport::Transport(std::string template_text) : template_text_(std::move(template_text)) {
  if (template_text_.empty()) return;
  support::check(template_text_.find("{cmd}") != std::string::npos,
                 "--transport template must contain the {cmd} placeholder");
  support::check(template_text_.find("{shard}") == std::string::npos &&
                     template_text_.find("{out}") == std::string::npos,
                 "--transport templates take only {cmd}; to launch one process per shard, run "
                 "'cicmon <sweep> --shard I/N --out PATH' under your scheduler and combine the "
                 "artifacts with 'cicmon merge'");
}

support::ChildProcess Transport::launch(const std::vector<std::string>& argv) const {
  if (template_text_.empty()) return support::spawn_process_piped(argv);
  const std::string command = support::shell_join(argv);
  std::string expanded = template_text_;
  for (std::size_t pos = 0; (pos = expanded.find("{cmd}", pos)) != std::string::npos;
       pos += command.size()) {
    expanded.replace(pos, 5, command);
  }
  return support::spawn_process_piped({"/bin/sh", "-c", expanded});
}

std::string Transport::describe() const {
  return template_text_.empty() ? "local" : "template '" + template_text_ + "'";
}

}  // namespace cicmon::dist
