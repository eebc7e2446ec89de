#include "net/runtime.hpp"

#include <exception>
#include <mutex>
#include <thread>

#include "core/stopwatch.hpp"

namespace c2pi::net {

RunResult run_two_party(DuplexChannel& channel,
                        const std::function<void(Transport&)>& server,
                        const std::function<void(Transport&)>& client) {
    std::mutex error_mutex;
    std::exception_ptr first_error;
    Stopwatch watch;

    // A party that dies records its exception (unless the peer already
    // failed) BEFORE closing the peer's queue, so the peer's PeerClosed
    // can never displace the root cause.
    const auto run_party = [&](int party, const std::function<void(Transport&)>& body) {
        try {
            InProcTransport t(channel, party);
            body(t);
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
            channel.queue_to(1 - party).abort();
        }
    };
    std::thread server_thread([&] { run_party(0, server); });
    std::thread client_thread([&] { run_party(1, client); });
    server_thread.join();
    client_thread.join();

    if (first_error) std::rethrow_exception(first_error);

    RunResult result;
    result.wall_seconds = watch.seconds();
    result.stats = channel.stats();
    return result;
}

}  // namespace c2pi::net
