#include "analysis/diagnostics.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "support/json.h"

namespace propeller::analysis {

namespace {

struct CheckInfo
{
    CheckId id;
    const char *name;
    const char *title;
};

constexpr CheckInfo kChecks[] = {
    {CheckId::PV001, "PV001", "symbol range outside the text image"},
    {CheckId::PV002, "PV002", "overlapping symbol ranges"},
    {CheckId::PV003, "PV003", "entry address is not a function entry"},
    {CheckId::PV004, "PV004", "disassembly failure in non-asm code"},
    {CheckId::PV005, "PV005", "branch target off instruction boundary"},
    {CheckId::PV006, "PV006", "terminator disagrees with successor list"},
    {CheckId::PV007, "PV007", "fall-through escapes the owning function"},
    {CheckId::PV008, "PV008", "call target is not a function entry"},
    {CheckId::PV009, "PV009", "addr-map block off instruction boundary"},
    {CheckId::PV010, "PV010", "addr-map blocks do not tile their range"},
    {CheckId::PV011, "PV011", "eh_frame coverage gap"},
    {CheckId::PV012, "PV012", "integrity-check hash mismatch"},
    {CheckId::PV013, "PV013", "invalid cluster directive"},
    {CheckId::PV014, "PV014", "invalid symbol-order directive"},
    {CheckId::PV015, "PV015", "layout does not honor the symbol order"},
    {CheckId::PV016, "PV016", "profile flow-conservation anomaly"},
};

const CheckInfo *
infoOf(CheckId id)
{
    for (const auto &info : kChecks) {
        if (info.id == id)
            return &info;
    }
    return nullptr;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    out += support::jsonEscape(s);
    out += '"';
}

std::string
hex(uint64_t value)
{
    char buf[32];
    snprintf(buf, sizeof buf, "0x%llx",
             static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

const char *
checkName(CheckId id)
{
    const CheckInfo *info = infoOf(id);
    return info ? info->name : "PV???";
}

const char *
checkTitle(CheckId id)
{
    const CheckInfo *info = infoOf(id);
    return info ? info->title : "unknown check";
}

bool
parseCheckId(const std::string &name, CheckId &out)
{
    for (const auto &info : kChecks) {
        if (name == info.name) {
            out = info.id;
            return true;
        }
    }
    return false;
}

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "error";
}

std::string
Diagnostic::render() const
{
    std::string out = severityName(severity);
    out += '[';
    out += checkName(id);
    out += "] ";
    if (!function.empty()) {
        out += function;
        if (address != 0)
            out += '@' + hex(address);
        out += ": ";
    } else if (address != 0) {
        out += hex(address) + ": ";
    }
    out += message;
    return out;
}

void
DiagnosticEngine::suppress(CheckId id)
{
    suppressMask_ |= 1ull << (static_cast<uint16_t>(id) - 1);
}

bool
DiagnosticEngine::parseSuppressions(const std::string &csv)
{
    bool all_known = true;
    size_t pos = 0;
    while (pos <= csv.size()) {
        size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string token = csv.substr(pos, comma - pos);
        // Trim surrounding spaces.
        size_t first = token.find_first_not_of(' ');
        size_t last = token.find_last_not_of(' ');
        if (first != std::string::npos)
            token = token.substr(first, last - first + 1);
        else
            token.clear();
        if (!token.empty()) {
            CheckId id;
            if (parseCheckId(token, id))
                suppress(id);
            else
                all_known = false;
        }
        pos = comma + 1;
    }
    return all_known;
}

void
DiagnosticEngine::report(CheckId id, Severity severity,
                         std::string function, uint64_t address,
                         std::string message)
{
    if (suppressMask_ & (1ull << (static_cast<uint16_t>(id) - 1))) {
        ++suppressed_;
        return;
    }
    switch (severity) {
      case Severity::Note:
        ++notes_;
        break;
      case Severity::Warning:
        ++warnings_;
        break;
      case Severity::Error:
        ++errors_;
        break;
    }
    diags_.push_back(Diagnostic{id, severity, std::move(function), address,
                                std::move(message)});
}

std::vector<std::string>
DiagnosticEngine::affectedFunctions() const
{
    std::set<std::string> names;
    for (const auto &d : diags_) {
        if (!d.function.empty())
            names.insert(d.function);
    }
    return {names.begin(), names.end()};
}

std::string
DiagnosticEngine::renderText() const
{
    std::string out;
    for (const auto &d : diags_) {
        out += d.render();
        out += '\n';
    }
    out += "verify: " + std::to_string(errors_) + " error(s), " +
           std::to_string(warnings_) + " warning(s), " +
           std::to_string(notes_) + " note(s)";
    if (suppressed_ != 0)
        out += ", " + std::to_string(suppressed_) + " suppressed";
    out += '\n';
    return out;
}

std::string
DiagnosticEngine::renderJson() const
{
    std::string out = "{\n";
    out += "  \"errors\": " + std::to_string(errors_) + ",\n";
    out += "  \"warnings\": " + std::to_string(warnings_) + ",\n";
    out += "  \"notes\": " + std::to_string(notes_) + ",\n";
    out += "  \"suppressed\": " + std::to_string(suppressed_) + ",\n";
    out += "  \"diagnostics\": [";
    for (size_t i = 0; i < diags_.size(); ++i) {
        const Diagnostic &d = diags_[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\"id\": ";
        appendJsonString(out, checkName(d.id));
        out += ", \"severity\": ";
        appendJsonString(out, severityName(d.severity));
        out += ", \"function\": ";
        appendJsonString(out, d.function);
        out += ", \"address\": " + std::to_string(d.address);
        out += ", \"message\": ";
        appendJsonString(out, d.message);
        out += '}';
    }
    out += diags_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace propeller::analysis
