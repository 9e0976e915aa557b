#include "common/types.hh"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace common {

bool
parseDuration(std::string_view text, Duration *out)
{
    std::size_t suffix = text.size();
    while (suffix > 0 &&
           std::isalpha(static_cast<unsigned char>(text[suffix - 1])))
        --suffix;
    const std::string_view unit = text.substr(suffix);
    const std::string num(text.substr(0, suffix));
    if (num.empty())
        return false;
    char *end = nullptr;
    const double value = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0')
        return false;
    double scale = 0;
    if (unit.empty() || unit == "ms")
        scale = static_cast<double>(kMillisecond);
    else if (unit == "ns")
        scale = static_cast<double>(kNanosecond);
    else if (unit == "us")
        scale = static_cast<double>(kMicrosecond);
    else if (unit == "s")
        scale = static_cast<double>(kSecond);
    else
        return false;
    *out = static_cast<Duration>(value * scale);
    return true;
}

std::string
Version::toString() const
{
    std::ostringstream os;
    os << "<" << timestamp << "," << clientId << ">";
    return os.str();
}

} // namespace common
