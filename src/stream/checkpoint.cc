#include "stream/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "util/fault.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace relborg {

namespace {

constexpr char kMagic[8] = {'R', 'B', 'C', 'K', 'P', 'T', '0', '1'};

}  // namespace

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void SerializeStreamCheckpointInfo(const StreamCheckpointInfo& info,
                                   ByteSink* sink) {
  sink->U64(info.epochs);
  sink->U64(info.batches);
  sink->U64(info.rows);
  sink->U64(info.ranges);
  sink->U64(info.watermark.size());
  for (size_t w : info.watermark) sink->U64(w);
}

StreamCheckpointInfo DeserializeStreamCheckpointInfo(ByteSource* src) {
  StreamCheckpointInfo info;
  info.epochs = src->U64();
  info.batches = src->U64();
  info.rows = src->U64();
  info.ranges = src->U64();
  const uint64_t n = src->U64();
  if (!src->CountFits(n, sizeof(uint64_t))) return info;
  info.watermark.resize(n);
  for (uint64_t v = 0; v < n; ++v) {
    info.watermark[v] = static_cast<size_t>(src->U64());
  }
  return info;
}

void SerializeShadowDbPrefix(const ShadowDb& db,
                             const std::vector<size_t>& watermark,
                             ByteSink* sink) {
  const int num_nodes = db.tree().num_nodes();
  sink->U32(static_cast<uint32_t>(num_nodes));
  for (int v = 0; v < num_nodes; ++v) {
    const Relation& rel = db.relation(v);
    const size_t rows = v < static_cast<int>(watermark.size())
                            ? watermark[v]
                            : rel.num_rows();
    const int arity = rel.num_attrs();
    sink->U64(rows);
    sink->U32(static_cast<uint32_t>(arity));
    for (size_t row = 0; row < rows; ++row) {
      for (int a = 0; a < arity; ++a) sink->F64(rel.AsDouble(row, a));
      sink->F64(db.sign(v, row));
    }
  }
}

Status RestoreShadowDbPrefix(ByteSource* src, ShadowDb* db) {
  const int num_nodes = db->tree().num_nodes();
  const uint32_t stored_nodes = src->U32();
  if (!src->ok() || static_cast<int>(stored_nodes) != num_nodes) {
    return Status::InvalidArgument(
        "checkpoint node count does not match the catalog");
  }
  for (int v = 0; v < num_nodes; ++v) {
    if (db->relation(v).num_rows() != 0) {
      return Status::InvalidArgument(
          "RestoreShadowDbPrefix requires a fresh ShadowDb");
    }
    const uint64_t rows = src->U64();
    const uint32_t arity = src->U32();
    if (!src->ok()) return Status::DataLoss("truncated checkpoint prefix");
    if (static_cast<int>(arity) != db->relation(v).num_attrs()) {
      return Status::InvalidArgument(
          "checkpoint arity does not match the catalog schema");
    }
    if (!src->CountFits(rows, (size_t{arity} + 1) * sizeof(double))) {
      return Status::DataLoss("truncated checkpoint prefix");
    }
    std::vector<std::vector<double>> values(rows,
                                            std::vector<double>(arity));
    std::vector<double> signs(rows);
    for (uint64_t row = 0; row < rows; ++row) {
      src->F64Span(values[row].data(), arity);
      signs[row] = src->F64();
    }
    if (!src->ok()) return Status::DataLoss("truncated checkpoint prefix");
    if (rows > 0) {
      IngestChunk chunk =
          db->StageRows(v, std::move(values), std::move(signs), /*first=*/0);
      db->CommitChunk(std::move(chunk));
    }
  }
  return Status::Ok();
}

Status WriteCheckpointFile(const std::string& path, const ByteSink& sink,
                           bool do_fsync, size_t* bytes_out) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open checkpoint tmp file: " + tmp);
  }
  const std::vector<uint8_t>& payload = sink.bytes();
  const uint64_t size = payload.size();
  const uint64_t checksum = Fnv1a64(payload.data(), payload.size());
  bool write_ok =
      std::fwrite(kMagic, 1, sizeof(kMagic), f) == sizeof(kMagic) &&
      std::fwrite(&size, sizeof(size), 1, f) == 1 &&
      std::fwrite(&checksum, sizeof(checksum), 1, f) == 1 &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  if (RELBORG_FAULT("stream/pre-checkpoint-fsync")) {
    // Simulated crash between write and flush/rename: the tmp file stays
    // behind (possibly torn in the OS cache) and the previous checkpoint —
    // if any — remains the visible one.
    std::fclose(f);
    return Status::Aborted("injected fault at stream/pre-checkpoint-fsync");
  }
  if (write_ok) write_ok = std::fflush(f) == 0;
#ifndef _WIN32
  if (write_ok && do_fsync) write_ok = ::fsync(fileno(f)) == 0;
#else
  (void)do_fsync;
#endif
  if (std::fclose(f) != 0) write_ok = false;
  if (!write_ok) {
    std::remove(tmp.c_str());
    return Status::Unavailable("short write to checkpoint tmp file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("cannot rename checkpoint into place: " + path);
  }
  if (bytes_out != nullptr) {
    *bytes_out = sizeof(kMagic) + 2 * sizeof(uint64_t) + payload.size();
  }
  return Status::Ok();
}

Status ReadCheckpointFile(const std::string& path,
                          std::vector<uint8_t>* payload) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint file at " + path);
  }
  char magic[sizeof(kMagic)];
  uint64_t size = 0;
  uint64_t checksum = 0;
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    std::fclose(f);
    return Status::DataLoss("bad checkpoint magic in " + path);
  }
  if (std::fread(&size, sizeof(size), 1, f) != 1 ||
      std::fread(&checksum, sizeof(checksum), 1, f) != 1) {
    std::fclose(f);
    return Status::DataLoss("truncated checkpoint header in " + path);
  }
  // The size field sits outside the checksum: check it against the file's
  // real length before it sizes an allocation.
  const long header_end = std::ftell(f);
  const bool seek_ok = header_end >= 0 && std::fseek(f, 0, SEEK_END) == 0;
  const long file_end = seek_ok ? std::ftell(f) : -1;
  if (file_end < header_end ||
      static_cast<uint64_t>(file_end - header_end) != size ||
      std::fseek(f, header_end, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::DataLoss("truncated or oversize checkpoint payload in " +
                            path);
  }
  payload->resize(size);
  const size_t got =
      size == 0 ? 0 : std::fread(payload->data(), 1, size, f);
  std::fclose(f);
  if (got != size) {
    return Status::DataLoss("short read of checkpoint payload in " + path);
  }
  if (Fnv1a64(payload->data(), payload->size()) != checksum) {
    return Status::DataLoss("checkpoint checksum mismatch in " + path);
  }
  return Status::Ok();
}

}  // namespace relborg
