#include "mmtag/ap/rate_adaptation.hpp"

namespace mmtag::ap {

const std::vector<rate_option>& rate_table()
{
    // Per-symbol SNR thresholds for ~1e-5 decoded BER: uncoded M-PSK theory
    // plus soft-decision convolutional coding gain (5.5 dB at R=1/2, 4.2 dB
    // at R=3/4), converted from Eb/N0 by 10 log10(bits * rate). Monotone in
    // both efficiency and threshold by construction.
    static const std::vector<rate_option> table = {
        {{phy::modulation::bpsk, phy::fec_mode::conv_half}, 1.1},
        {{phy::modulation::qpsk, phy::fec_mode::conv_half}, 4.1},
        {{phy::modulation::qpsk, phy::fec_mode::conv_three_quarters}, 7.5},
        {{phy::modulation::psk8, phy::fec_mode::conv_three_quarters}, 12.5},
        {{phy::modulation::psk8, phy::fec_mode::uncoded}, 17.8},
        {{phy::modulation::psk16, phy::fec_mode::uncoded}, 23.5},
    };
    return table;
}

std::size_t rate_index(double snr_db, double margin_db)
{
    const auto& table = rate_table();
    std::size_t chosen = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (snr_db >= table[i].required_snr_db + margin_db) chosen = i;
    }
    return chosen;
}

rate_adapter::rate_adapter(double margin_db) : margin_db_(margin_db) {}

rate_option rate_adapter::select(double snr_db) const
{
    return rate_table()[rate_index(snr_db, margin_db_)];
}

rate_option rate_adapter::select_smoothed(double snr_db)
{
    constexpr double alpha = 0.25;
    if (!primed_) {
        smoothed_snr_db_ = snr_db;
        primed_ = true;
    } else {
        smoothed_snr_db_ += alpha * (snr_db - smoothed_snr_db_);
    }
    return select(smoothed_snr_db_);
}

} // namespace mmtag::ap
