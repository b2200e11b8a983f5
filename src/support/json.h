#ifndef PROPELLER_SUPPORT_JSON_H
#define PROPELLER_SUPPORT_JSON_H

/**
 * @file
 * The one JSON string escaper.  Every JSON writer in the tree (the
 * statusz page, the verifier report, Chrome traces) quotes text through
 * it, so any byte string survives a strict RFC 8259 parser.
 */

#include <cstdio>
#include <string>
#include <string_view>

namespace propeller::support {

/**
 * @p s escaped for use between the quotes of a JSON string: `"` and `\`
 * get a backslash, \n \t \r \b \f their short forms, any other control
 * character \u00XX.  Bytes from 0x20 up pass through unchanged.
 */
inline std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace propeller::support

#endif // PROPELLER_SUPPORT_JSON_H
