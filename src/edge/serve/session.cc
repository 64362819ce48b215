#include "edge/serve/session.h"

#include <chrono>
#include <utility>

#include "edge/obs/json_util.h"

namespace edge::serve {

std::string ReloadResultLine(const std::string& id, const Status& status,
                             uint64_t generation) {
  std::string out = "{";
  if (!id.empty()) {
    out += "\"id\":";
    obs::internal::AppendJsonString(&out, id);
    out += ",";
  }
  if (status.ok()) {
    out += "\"reload\":\"ok\",\"generation\":" + std::to_string(generation) + "}";
  } else {
    std::string message = status.ToString();
    // The Status messages this renders (paths, parse errors) are ASCII; keep
    // the line valid JSON anyway.
    for (char& c : message) {
      if (c == '"' || c == '\\') c = '\'';
    }
    out += "\"reload\":\"failed\",\"error\":\"" + message + "\"}";
  }
  return out;
}

std::string ControlResultLine(const std::string& id, const char* key,
                              const std::string& body) {
  std::string out = "{";
  if (!id.empty()) {
    out += "\"id\":";
    obs::internal::AppendJsonString(&out, id);
    out += ",";
  }
  out += "\"";
  out += key;
  out += "\":" + body + "}";
  return out;
}

std::string BadRequestLine(const std::string& error, size_t line_number) {
  std::string out = "{\"error\":";
  obs::internal::AppendJsonString(&out, error);
  out += ",\"line\":" + std::to_string(line_number) + "}";
  return out;
}

ServeSession::ServeSession(GeoService* geo, ServeSessionOptions options)
    : geo_(geo), options_(options) {}

void ServeSession::HandleLine(const std::string& line) {
  ++line_number_;
  ServeRequest request;
  std::string error;
  if (!ParseRequestLine(line, &request, &error)) {
    // Bad lines still answer in input order, with the actual parse error, so
    // a misspelled control verb is debuggable from the response stream alone.
    ++bad_lines_;
    InFlight rejected;
    rejected.is_literal = true;
    rejected.literal = BadRequestLine(error, line_number_);
    in_flight_.push_back(std::move(rejected));
    return;
  }
  if (request.stats || request.health) {
    // Introspection verbs answer from the live instruments, keeping their
    // slot in the one-line-out-per-line-in contract.
    InFlight ack;
    ack.id = std::move(request.id);
    ack.is_literal = true;
    ack.literal = request.stats
                      ? ControlResultLine(ack.id, "stats", geo_->StatsJson())
                      : ControlResultLine(ack.id, "health", geo_->HealthJson());
    in_flight_.push_back(std::move(ack));
    return;
  }
  if (!request.reload_path.empty()) {
    // Control line: swap the served model. In-flight batches finish on the
    // old model; the acknowledgement keeps its slot in the output order.
    Status status = geo_->ReloadFromFile(request.reload_path);
    InFlight ack;
    ack.id = std::move(request.id);
    ack.is_literal = true;
    ack.literal = ReloadResultLine(ack.id, status, geo_->model_generation());
    in_flight_.push_back(std::move(ack));
    return;
  }
  InFlight pending;
  pending.id = std::move(request.id);
  pending.future = request.deadline_ms >= 0.0
                       ? geo_->SubmitAsync(std::move(request.text),
                                           request.deadline_ms)
                       : geo_->SubmitAsync(std::move(request.text));
  in_flight_.push_back(std::move(pending));
}

void ServeSession::HandleOversized() {
  ++line_number_;
  ++bad_lines_;
  InFlight rejected;
  rejected.is_literal = true;
  rejected.literal = BadRequestLine("line exceeds maximum length", line_number_);
  in_flight_.push_back(std::move(rejected));
}

bool ServeSession::FrontReady() const {
  if (in_flight_.empty()) return false;
  const InFlight& front = in_flight_.front();
  if (front.is_literal) return true;
  return front.future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

std::string ServeSession::Render(InFlight* slot) const {
  if (slot->is_literal) return std::move(slot->literal);
  ServeResponse response = slot->future.get();
  // Render with the model that produced the prediction: a hot reload may
  // have swapped the service model while this batch was in flight.
  return ResponseToJsonLine(response, *response.model, slot->id,
                            options_.include_latency);
}

void ServeSession::DrainReady(std::vector<std::string>* out) {
  while (FrontReady()) {
    out->push_back(Render(&in_flight_.front()));
    in_flight_.pop_front();
  }
}

void ServeSession::DrainAll(std::vector<std::string>* out) {
  while (!in_flight_.empty()) {
    out->push_back(Render(&in_flight_.front()));
    in_flight_.pop_front();
  }
}

}  // namespace edge::serve
