#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <queue>
#include <utility>

namespace perfbench {

double
referenceSeconds()
{
    constexpr std::size_t kTableWords = 1u << 15; // 256 KB
    constexpr std::size_t kEvents = 400000;
    static std::vector<std::uint64_t> table(kTableWords, 1);

    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> agenda;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < 4096; ++i)
        agenda.emplace(next() % 1000, i);
    std::uint64_t sum = 0;
    for (std::size_t n = 0; n < kEvents; ++n) {
        const auto [when, id] = agenda.top();
        agenda.pop();
        std::uint64_t &cell = table[(next() ^ id) % kTableWords];
        cell += when;
        sum += cell;
        agenda.emplace(when + 1 + next() % 1000, id);
    }
    table[sum % kTableWords] ^= 1; // keep the loop observable
    return secondsSince(t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
exactPercentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

// ------------------------------------------------------------ Buckets

void
Buckets::add(const sim::Histogram &h)
{
    const auto &b = h.buckets();
    if (_n.size() < b.size())
        _n.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i)
        _n[i] += b[i];
}

void
Buckets::add(const Buckets &o)
{
    if (_n.size() < o._n.size())
        _n.resize(o._n.size(), 0);
    for (std::size_t i = 0; i < o._n.size(); ++i)
        _n[i] += o._n[i];
}

void
Buckets::subtract(const Buckets &o)
{
    for (std::size_t i = 0; i < o._n.size() && i < _n.size(); ++i)
        _n[i] -= std::min(_n[i], o._n[i]);
}

std::uint64_t
Buckets::count() const
{
    std::uint64_t c = 0;
    for (std::uint64_t n : _n)
        c += n;
    return c;
}

double
Buckets::percentile(double p) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    rank = std::clamp<std::uint64_t>(rank, 1, total);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < _n.size(); ++i) {
        if (below + _n[i] < rank) {
            below += _n[i];
            continue;
        }
        const auto idx = static_cast<std::uint32_t>(i);
        const double lo =
            static_cast<double>(sim::Histogram::bucketLo(idx));
        const double hi =
            static_cast<double>(sim::Histogram::bucketHi(idx));
        const double frac =
            (static_cast<double>(rank - below) - 0.5) /
            static_cast<double>(_n[i]);
        return lo + frac * (hi - lo);
    }
    return 0;
}

// ----------------------------------------------------------- Snapshot

void
Snapshot::capture(const sim::TelemetryNode &node,
                  const std::string &prefix)
{
    const std::string base =
        prefix + (node.path().empty() ? "" : node.path() + ".");
    for (const sim::Stat *s : node.stats()) {
        const std::string key = base + s->name();
        if (auto *c = dynamic_cast<const sim::Counter *>(s)) {
            _values[key] += static_cast<double>(c->value());
        } else if (auto *a = dynamic_cast<const sim::Average *>(s)) {
            _values[key + ".n"] += static_cast<double>(a->count());
            _values[key + ".sum"] += a->sum();
        } else if (auto *h =
                       dynamic_cast<const sim::Histogram *>(s)) {
            _hists[key].add(*h);
        }
    }
    for (const auto &child : node.children())
        capture(*child, prefix);
}

Snapshot
Snapshot::minus(const Snapshot &before) const
{
    Snapshot d = *this;
    for (const auto &[k, v] : before._values)
        d._values[k] -= v;
    for (const auto &[k, h] : before._hists)
        d._hists[k].subtract(h);
    return d;
}

double
Snapshot::sum(const Pred &match) const
{
    double s = 0;
    for (const auto &[k, v] : _values)
        if (match(k))
            s += v;
    return s;
}

Buckets
Snapshot::hist(const Pred &match) const
{
    Buckets b;
    for (const auto &[k, h] : _hists)
        if (match(k))
            b.add(h);
    return b;
}

std::map<std::string, Buckets>
Snapshot::hists(const Pred &match) const
{
    std::map<std::string, Buckets> out;
    for (const auto &[k, h] : _hists)
        if (match(k))
            out[k] = h;
    return out;
}

void
fnv1a(std::uint64_t &h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

std::uint64_t
Snapshot::digest() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &[k, v] : _values) {
        fnv1a(h, k.data(), k.size());
        fnv1a(h, &v, sizeof v);
    }
    for (const auto &[k, b] : _hists) {
        fnv1a(h, k.data(), k.size());
        for (std::uint64_t n : b.counts())
            if (n != 0)
                fnv1a(h, &n, sizeof n);
    }
    return h;
}

Snapshot::Pred
endsWith(const std::string &suffix)
{
    return [suffix](const std::string &k) {
        return k.size() >= suffix.size() &&
               k.compare(k.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    };
}

// -------------------------------------------------------------- Spans

int
Spans::begin(const std::string &name, const std::string &layer)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.start = secondsSince(_t0);
    s.parent = _open.empty() ? -1 : _open.back();
    s.rep = _rep;
    _spans.push_back(std::move(s));
    const int id = static_cast<int>(_spans.size()) - 1;
    _open.push_back(id);
    return id;
}

void
Spans::end(int id)
{
    _spans[static_cast<std::size_t>(id)].end = secondsSince(_t0);
    if (!_open.empty() && _open.back() == id)
        _open.pop_back();
}

std::map<std::string, double>
Spans::selfTime(int rep) const
{
    std::vector<double> child(_spans.size(), 0.0);
    for (const Span &s : _spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < _spans.size(); ++i)
        if (_spans[i].rep == rep)
            out[_spans[i].layer] +=
                _spans[i].end - _spans[i].start - child[i];
    return out;
}

std::map<std::string, double>
Spans::totalTime(int rep) const
{
    std::map<std::string, double> out;
    for (const Span &s : _spans)
        if (s.rep == rep)
            out[s.layer] += s.end - s.start;
    return out;
}

bool
Spans::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[\n";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
            "\"args\":{\"id\":%zu,\"parent\":%d,\"rep\":%d}}%s\n",
            s.name.c_str(), s.layer.c_str(), s.start * 1e6,
            (s.end - s.start) * 1e6, s.rep, i, s.parent, s.rep,
            i + 1 < _spans.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
