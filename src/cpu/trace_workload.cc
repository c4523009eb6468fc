/**
 * @file
 * Trace parsing/serialization.
 */

#include "cpu/trace_workload.hh"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "util/env.hh"
#include "util/logging.hh"

namespace obfusmem {

std::vector<MemOp>
parseTrace(std::istream &in)
{
    std::vector<MemOp> ops;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string_view view = line;
        size_t hash = view.find('#');
        if (hash != std::string_view::npos)
            view = view.substr(0, hash);
        std::istringstream fields{std::string(view)};

        std::string gap_dec, cmd, addr_hex;
        if (!(fields >> gap_dec))
            continue; // blank/comment line
        fatal_if(!(fields >> cmd >> addr_hex),
                 "trace line ", line_no, ": expected <gap> <R|W> "
                 "<hexaddr>");
        const std::optional<uint64_t> gap = env::parseU64(gap_dec);
        fatal_if(!gap || *gap > UINT32_MAX, "trace line ", line_no,
                 ": gap \"", gap_dec,
                 "\" is not a decimal instruction count below 2^32");
        fatal_if(cmd != "R" && cmd != "W", "trace line ", line_no,
                 ": command must be R or W");
        std::string_view digits = addr_hex;
        if (digits.size() > 2 && digits[0] == '0'
            && (digits[1] == 'x' || digits[1] == 'X'))
            digits.remove_prefix(2);
        const std::optional<uint64_t> addr = env::parseU64(digits, 16);
        fatal_if(!addr, "trace line ", line_no, ": address \"",
                 addr_hex, "\" is not a hex number");

        MemOp op;
        op.gapInstrs = static_cast<uint32_t>(*gap);
        op.isStore = cmd == "W";
        op.addr = *addr;
        op.dependent = false;
        op.stream = false;

        std::string flag;
        while (fields >> flag) {
            if (flag == "D")
                op.dependent = true;
            else if (flag == "S")
                op.stream = true;
            else
                fatal("trace line ", line_no, ": unknown flag ",
                      flag);
        }
        ops.push_back(op);
    }
    return ops;
}

std::vector<MemOp>
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open trace file ", path);
    return parseTrace(in);
}

void
writeTrace(std::ostream &out, const std::vector<MemOp> &ops)
{
    out << "# gap R|W hexaddr [D] [S]\n";
    for (const MemOp &op : ops) {
        out << op.gapInstrs << " " << (op.isStore ? "W" : "R") << " "
            << std::hex << op.addr << std::dec;
        if (op.dependent)
            out << " D";
        if (op.stream)
            out << " S";
        out << "\n";
    }
}

WorkloadGenerator
makeTraceReplayer(std::vector<MemOp> ops, double base_cpi)
{
    return WorkloadGenerator::fromTrace(std::move(ops), base_cpi);
}

} // namespace obfusmem
