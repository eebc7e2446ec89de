#include "trace.hpp"

#include <fstream>
#include <iomanip>

#include "core/error.hpp"

namespace perfbench {

namespace {

const char* phase_name(c2pi::net::Phase phase) {
    switch (phase) {
        case c2pi::net::Phase::kOffline: return "offline";
        case c2pi::net::Phase::kOnline: return "online";
        case c2pi::net::Phase::kPreprocess: return "preprocess";
    }
    return "online";
}

/// JSON string literal (span names are ASCII identifiers; escape anyway).
std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

double SpanRecorder::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::int64_t SpanRecorder::begin(std::string name, std::string category, int lane,
                                 std::int64_t parent) {
    Span span;
    span.name = std::move(name);
    span.category = std::move(category);
    span.lane = lane;
    span.start_s = now();
    span.parent = parent;
    return add(std::move(span));
}

void SpanRecorder::end(std::int64_t id) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_.at(static_cast<std::size_t>(id));
    span.dur_s = t - span.start_s;
}

std::int64_t SpanRecorder::add(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double> SpanRecorder::self_times() const {
    const std::vector<Span> all = spans();
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) self[i] = all[i].dur_s;
    for (const Span& s : all)
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_s;
    for (double& v : self) v = std::max(v, 0.0);
    return self;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
    const std::vector<Span> all = spans();
    const std::vector<double> self = self_times();
    std::ofstream out(path);
    c2pi::require(static_cast<bool>(out), "cannot write trace file " + path);
    out << std::fixed << std::setprecision(3) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    const char* lanes[] = {"server", "client", "layer probe"};
    for (int lane = 0; lane < 3; ++lane)
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
            << ",\"args\":{\"name\":\"" << lanes[lane] << "\"}},\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        out << "{\"name\":" << quoted(s.name) << ",\"cat\":" << quoted(s.category)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":" << s.start_s * 1e6
            << ",\"dur\":" << s.dur_s * 1e6 << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"self_us\":" << self[i] * 1e6;
        if (s.phase[0] != '\0') out << ",\"phase\":\"" << s.phase << "\"";
        if (s.bytes > 0) out << ",\"bytes\":" << s.bytes;
        if (s.blocked_s > 0) out << ",\"blocked_us\":" << s.blocked_s * 1e6;
        out << "}}" << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

RecordingTransport::Call RecordingTransport::start_call() {
    inner_->set_phase(phase_);
    return {recorder_->now(), inner_->wait_stats().total_seconds()};
}

void RecordingTransport::finish_call(const Call& call, const char* name, c2pi::net::Phase phase,
                                     std::uint64_t bytes) {
    Span span;
    span.name = name;
    span.category = "net";
    span.lane = lane_;
    span.start_s = call.start_s;
    span.dur_s = recorder_->now() - call.start_s;
    span.parent = parent_;
    span.phase = phase_name(phase);
    span.bytes = bytes;
    span.blocked_s = inner_->wait_stats().total_seconds() - call.wait0_s;
    recorder_->add(std::move(span));
}

void RecordingTransport::send_bytes(std::span<const std::uint8_t> data) {
    const Call call = start_call();
    inner_->send_bytes(data);
    finish_call(call, "send", phase_, data.size());
}

std::vector<std::uint8_t> RecordingTransport::recv_bytes() {
    std::vector<std::uint8_t> out;
    recv_bytes_into(out);
    return out;
}

void RecordingTransport::recv_bytes_into(std::vector<std::uint8_t>& out) {
    const Call call = start_call();
    inner_->recv_bytes_into(out);
    finish_call(call, "recv", phase_, out.size());
}

void RecordingTransport::flush_sends() {
    const Call call = start_call();
    inner_->flush_sends();
    finish_call(call, "flush", phase_, 0);
}

void RecordingTransport::send_artifact_bytes(std::span<const std::uint8_t> bytes) {
    const Call call = start_call();
    inner_->send_artifact_bytes(bytes);
    finish_call(call, "send_artifact", phase_, bytes.size());
}

std::vector<std::uint8_t> RecordingTransport::recv_artifact_bytes() {
    const Call call = start_call();
    auto out = inner_->recv_artifact_bytes();
    finish_call(call, "recv_artifact", phase_, out.size());
    return out;
}

void RecordingTransport::send_keys_bytes(std::span<const std::uint8_t> bytes) {
    const Call call = start_call();
    inner_->send_keys_bytes(bytes);
    finish_call(call, "send_keys", c2pi::net::Phase::kPreprocess, bytes.size());
}

std::vector<std::uint8_t> RecordingTransport::recv_keys_bytes() {
    const Call call = start_call();
    auto out = inner_->recv_keys_bytes();
    finish_call(call, "recv_keys", c2pi::net::Phase::kPreprocess, out.size());
    return out;
}

}  // namespace perfbench
