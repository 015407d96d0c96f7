#include "node/query.h"

#include <numeric>
#include <string>

namespace deco {

uint64_t ProtocolWindowLength(const WindowSpec& window) {
  if (window.type == WindowType::kSliding) {
    return std::gcd(window.length, window.slide);
  }
  return window.length;
}

void EncodeQueryConfig(const QueryConfig& config, BinaryWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(config.window.type));
  writer->PutU64(config.window.length);
  writer->PutU64(config.window.slide);
  writer->PutU8(static_cast<uint8_t>(config.aggregate));
  writer->PutDouble(config.quantile_q);
}

Result<QueryConfig> DecodeQueryConfig(BinaryReader* reader) {
  QueryConfig config;
  DECO_ASSIGN_OR_RETURN(uint8_t type, reader->GetU8());
  if (type > static_cast<uint8_t>(WindowType::kSliding)) {
    return Status::InvalidArgument("unknown window type " +
                                   std::to_string(type));
  }
  config.window.type = static_cast<WindowType>(type);
  DECO_ASSIGN_OR_RETURN(config.window.length, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(config.window.slide, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(uint8_t agg, reader->GetU8());
  if (agg > static_cast<uint8_t>(AggregateKind::kQuantile)) {
    return Status::InvalidArgument("unknown aggregate kind " +
                                   std::to_string(agg));
  }
  config.aggregate = static_cast<AggregateKind>(agg);
  DECO_ASSIGN_OR_RETURN(config.quantile_q, reader->GetDouble());
  DECO_RETURN_NOT_OK(config.Validate());
  return config;
}

}  // namespace deco
