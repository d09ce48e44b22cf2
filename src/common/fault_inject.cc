#include "fault_inject.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

#include "common/logging.hh"

namespace scd::faultinj
{

namespace
{

// Armed state. The hot path (hit()) takes the mutex only when a fault
// is armed; armedFlag_ is checked first so the disarmed cost is one
// relaxed atomic load.
std::atomic<bool> armedFlag_{false};
std::mutex mutex_;
std::string armedSite_;
unsigned armedNth_ = 0;
unsigned hits_ = 0;
std::once_flag envOnce_;

void
armFromEnv()
{
    const char *spec = std::getenv("SCD_FAULT");
    if (!spec || !*spec)
        return;
    std::string s(spec);
    size_t colon = s.rfind(':');
    std::string site = colon == std::string::npos ? s : s.substr(0, colon);
    unsigned nth = 1;
    if (colon != std::string::npos) {
        char *end = nullptr;
        long v = std::strtol(s.c_str() + colon + 1, &end, 10);
        if (!end || *end != '\0' || v < 1)
            fatal("malformed SCD_FAULT '", s, "'; expected <site>:<nth>");
        nth = unsigned(v);
    }
    arm(site, nth);
}

} // namespace

const std::vector<std::string> &
registeredSites()
{
    static const std::vector<std::string> sites = {
        "guest-trap",
        "replay-ring",
        "json-write",
        "point-oom",
    };
    return sites;
}

void
arm(const std::string &site, unsigned nth)
{
    const std::vector<std::string> &sites = registeredSites();
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
        std::string known;
        for (const std::string &s : sites) {
            if (!known.empty())
                known += ", ";
            known += s;
        }
        fatal("unknown fault site '", site, "' (registered sites: ",
              known, ")");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    armedSite_ = site;
    armedNth_ = nth == 0 ? 1 : nth;
    hits_ = 0;
    armedFlag_.store(true, std::memory_order_release);
}

void
disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    armedSite_.clear();
    armedNth_ = 0;
    hits_ = 0;
    armedFlag_.store(false, std::memory_order_release);
}

bool
armed()
{
    return armedFlag_.load(std::memory_order_acquire);
}

void
hit(const char *site)
{
    std::call_once(envOnce_, armFromEnv);
    if (!armedFlag_.load(std::memory_order_acquire))
        return;

    unsigned occurrence = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (armedSite_ != site)
            return;
        if (++hits_ != armedNth_)
            return;
        // One-shot: disarm before throwing so recovery paths (e.g. the
        // replay->direct fallback) do not re-trip the same fault.
        occurrence = hits_;
        armedSite_.clear();
        armedNth_ = 0;
        hits_ = 0;
        armedFlag_.store(false, std::memory_order_release);
    }
    if (std::string(site) == "point-oom")
        throw std::bad_alloc();
    fatal("injected fault at ", site, " (occurrence ", occurrence, ")");
}

} // namespace scd::faultinj
