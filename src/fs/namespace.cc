#include "src/fs/namespace.h"

#include <algorithm>

namespace o1mem {

Result<std::string> Namespace::Normalize(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("path must be absolute");
  }
  std::string out;
  size_t i = 0;
  while (i < path.size()) {
    O1_CHECK(path[i] == '/');
    size_t j = i + 1;
    while (j < path.size() && path[j] != '/') {
      ++j;
    }
    const std::string_view component = path.substr(i + 1, j - i - 1);
    if (component.empty()) {
      if (j < path.size()) {
        return InvalidArgument("empty path component");
      }
      break;  // trailing slash: tolerated, dropped
    }
    if (component == "." || component == "..") {
      return InvalidArgument("'.' and '..' are not supported");
    }
    out += '/';
    out += component;
    i = j;
  }
  if (out.empty()) {
    out.push_back('/');
  }
  return out;
}

std::string Namespace::ParentOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  O1_CHECK(slash != std::string::npos);
  return slash == 0 ? std::string("/") : path.substr(0, slash);
}

bool Namespace::HasChildren(const std::string& path) const {
  const std::string prefix = path == "/" ? "/" : path + "/";
  auto it = entries_.lower_bound(prefix);
  return it != entries_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
}

bool Namespace::DirExists(std::string_view path) const {
  auto normalized = Normalize(path);
  if (!normalized.ok()) {
    return false;
  }
  if (*normalized == "/") {
    return true;
  }
  auto it = entries_.find(*normalized);
  return it != entries_.end() && it->second.is_dir;
}

void Namespace::EnsureParents(const std::string& path) {
  std::string parent = ParentOf(path);
  std::vector<std::string> missing;
  while (parent != "/" && !entries_.contains(parent)) {
    missing.push_back(parent);
    parent = ParentOf(parent);
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    entries_.emplace(*it, Entry{.is_dir = true});
  }
}

Status Namespace::Mkdir(std::string_view path) {
  O1_ASSIGN_OR_RETURN(std::string normalized, Normalize(path));
  if (normalized == "/") {
    return AlreadyExists("root always exists");
  }
  if (entries_.contains(normalized)) {
    return AlreadyExists("path exists");
  }
  const std::string parent = ParentOf(normalized);
  if (parent != "/" ) {
    auto it = entries_.find(parent);
    if (it == entries_.end() || !it->second.is_dir) {
      return NotFound("parent directory does not exist");
    }
  }
  entries_.emplace(normalized, Entry{.is_dir = true});
  return OkStatus();
}

Status Namespace::Rmdir(std::string_view path) {
  O1_ASSIGN_OR_RETURN(std::string normalized, Normalize(path));
  auto it = entries_.find(normalized);
  if (it == entries_.end() || !it->second.is_dir) {
    return NotFound("no such directory");
  }
  if (HasChildren(normalized)) {
    return Busy("directory not empty");
  }
  entries_.erase(it);
  return OkStatus();
}

Status Namespace::AddFile(std::string_view path, InodeId inode) {
  O1_ASSIGN_OR_RETURN(std::string normalized, Normalize(path));
  if (normalized == "/") {
    return InvalidArgument("cannot bind a file to the root");
  }
  if (entries_.contains(normalized)) {
    return AlreadyExists("path exists");
  }
  // The destination's ancestors must not be files.
  for (std::string parent = ParentOf(normalized); parent != "/";
       parent = ParentOf(parent)) {
    auto it = entries_.find(parent);
    if (it != entries_.end() && !it->second.is_dir) {
      return InvalidArgument("a path component is a file");
    }
  }
  EnsureParents(normalized);
  entries_.emplace(normalized, Entry{.is_dir = false, .inode = inode});
  return OkStatus();
}

Result<InodeId> Namespace::LookupFile(std::string_view path) const {
  O1_ASSIGN_OR_RETURN(std::string normalized, Normalize(path));
  auto it = entries_.find(normalized);
  if (it == entries_.end() || it->second.is_dir) {
    return NotFound("no such file");
  }
  return it->second.inode;
}

Result<InodeId> Namespace::RemoveFile(std::string_view path) {
  O1_ASSIGN_OR_RETURN(std::string normalized, Normalize(path));
  auto it = entries_.find(normalized);
  if (it == entries_.end() || it->second.is_dir) {
    return NotFound("no such file");
  }
  const InodeId inode = it->second.inode;
  entries_.erase(it);
  return inode;
}

Status Namespace::Rename(std::string_view from, std::string_view to) {
  O1_ASSIGN_OR_RETURN(std::string src, Normalize(from));
  O1_ASSIGN_OR_RETURN(std::string dst, Normalize(to));
  if (src == "/" || dst == "/") {
    return InvalidArgument("cannot rename the root");
  }
  auto it = entries_.find(src);
  if (it == entries_.end()) {
    return NotFound("rename source does not exist");
  }
  if (entries_.contains(dst)) {
    return AlreadyExists("rename destination exists");
  }
  // Destination parent must be a directory (or the root).
  const std::string dst_parent = ParentOf(dst);
  if (dst_parent != "/") {
    auto parent = entries_.find(dst_parent);
    if (parent == entries_.end() || !parent->second.is_dir) {
      return NotFound("rename destination parent does not exist");
    }
  }
  // A directory cannot move under itself.
  const std::string src_prefix = src + "/";
  if (it->second.is_dir && dst.compare(0, src_prefix.size(), src_prefix) == 0) {
    return InvalidArgument("cannot move a directory into itself");
  }
  if (!it->second.is_dir) {
    Entry entry = it->second;
    entries_.erase(it);
    entries_.emplace(dst, entry);
    return OkStatus();
  }
  // Directory: rewrite the subtree's keys.
  std::vector<std::pair<std::string, Entry>> moved;
  moved.emplace_back(dst, it->second);
  for (auto child = entries_.upper_bound(src); child != entries_.end(); ++child) {
    if (child->first.compare(0, src_prefix.size(), src_prefix) != 0) {
      break;
    }
    moved.emplace_back(dst + child->first.substr(src.size()), child->second);
  }
  // Erase old keys (subtree + the dir itself).
  auto begin = entries_.find(src);
  auto end = begin;
  while (end != entries_.end() &&
         (end->first == src || end->first.compare(0, src_prefix.size(), src_prefix) == 0)) {
    ++end;
  }
  entries_.erase(begin, end);
  for (auto& [key, entry] : moved) {
    entries_.emplace(std::move(key), entry);
  }
  return OkStatus();
}

Result<std::vector<DirEntry>> Namespace::List(std::string_view path) const {
  O1_ASSIGN_OR_RETURN(std::string normalized, Normalize(path));
  if (normalized != "/" && !DirExists(normalized)) {
    return NotFound("no such directory");
  }
  const std::string prefix = normalized == "/" ? "/" : normalized + "/";
  std::vector<DirEntry> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    const std::string rest = it->first.substr(prefix.size());
    if (rest.find('/') != std::string::npos) {
      continue;  // deeper than one level
    }
    out.push_back(DirEntry{.name = rest, .is_dir = it->second.is_dir,
                           .inode = it->second.inode});
  }
  return out;
}

std::vector<std::pair<std::string, InodeId>> Namespace::AllFiles() const {
  std::vector<std::pair<std::string, InodeId>> out;
  for (const auto& [path, entry] : entries_) {
    if (!entry.is_dir) {
      out.emplace_back(path, entry.inode);
    }
  }
  return out;
}

std::vector<std::string> Namespace::AllDirs() const {
  std::vector<std::string> out;
  for (const auto& [path, entry] : entries_) {
    if (entry.is_dir) {
      out.push_back(path);
    }
  }
  return out;
}

size_t Namespace::file_count() const {
  size_t n = 0;
  for (const auto& [path, entry] : entries_) {
    n += entry.is_dir ? 0 : 1;
  }
  return n;
}

void Namespace::Clear() { entries_.clear(); }

}  // namespace o1mem
