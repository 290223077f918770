#include "sim/stats.hh"

#include <fstream>
#include <iomanip>

namespace tt
{

void
StatSet::dump(std::ostream& os) const
{
    for (const auto& [name, c] : _counters)
        os << std::left << std::setw(48) << name << c.value() << "\n";
}

namespace
{

void
jsonString(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            os << '\\';
        os << ch;
    }
    os << '"';
}

} // namespace

void
StatSet::writeJson(std::ostream& os) const
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : _counters) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        jsonString(os, name);
        os << ": " << c.value();
    }
    os << (first ? "}" : "\n  }") << "\n}\n";
}

bool
StatSet::writeJsonFile(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJson(f);
    return f.good();
}

void
StatSet::reset()
{
    for (auto& [name, c] : _counters)
        c.reset();
}

} // namespace tt
