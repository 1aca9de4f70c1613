#include "accel/algo/smith_waterman.hh"

#include <algorithm>
#include <vector>

namespace optimus::algo {

std::int32_t
smithWatermanScore(std::string_view a, std::string_view b,
                   const SwParams &params)
{
    if (a.empty() || b.empty())
        return 0;

    // Two flat int32 rows; H[i][j] >= 0 with local reset. Every max
    // is a pairwise std::max on int32 (conditional moves, no
    // data-dependent branch), and only the in-row gap term
    // H[i][j-1] + gap, kept in a register, sits on the loop-carried
    // chain.
    const std::int32_t match = params.match;
    const std::int32_t mismatch = params.mismatch;
    const std::int32_t gap = params.gap;
    std::vector<std::int32_t> prev_row(b.size() + 1, 0);
    std::vector<std::int32_t> cur_row(b.size() + 1, 0);
    std::int32_t *prev = prev_row.data();
    std::int32_t *cur = cur_row.data();
    std::int32_t best = 0;

    for (const char ai : a) {
        std::int32_t left = 0; // H[i][j - 1]
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::int32_t sub =
                prev[j - 1] + (ai == b[j - 1] ? match : mismatch);
            const std::int32_t up =
                std::max(std::max(sub, prev[j] + gap), 0);
            const std::int32_t h = std::max(up, left + gap);
            cur[j] = h;
            left = h;
            best = std::max(best, h);
        }
        std::swap(prev, cur);
    }
    return best;
}

} // namespace optimus::algo
