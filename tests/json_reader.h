#ifndef PROPELLER_TESTS_JSON_READER_H
#define PROPELLER_TESTS_JSON_READER_H

/**
 * @file
 * A strict JSON reader for tests of the tree's JSON writers.
 */

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

namespace propeller::test {

/**
 * Strict JSON reader: accepts exactly one RFC 8259 value and records
 * every string-valued member by key (the last one wins), with escapes
 * decoded.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s_(text) {}

    bool
    parse()
    {
        bool ok = value("");
        skipWs();
        return ok && pos_ == s_.size();
    }

    std::map<std::string, std::string> strings;

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() && std::strchr(" \t\r\n", s_[pos_]))
            ++pos_;
    }

    bool
    accept(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    value(const std::string &key)
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        if (accept('{')) {
            if (accept('}'))
                return true;
            do {
                std::string member;
                skipWs();
                if (!string(member) || !accept(':') || !value(member))
                    return false;
            } while (accept(','));
            return accept('}');
        }
        if (accept('[')) {
            if (accept(']'))
                return true;
            do {
                if (!value(""))
                    return false;
            } while (accept(','));
            return accept(']');
        }
        if (s_[pos_] == '"') {
            std::string text;
            if (!string(text))
                return false;
            strings[key] = text;
            return true;
        }
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                std::strchr("+-.", s_[pos_])))
            ++pos_;
        std::string token = s_.substr(start, pos_ - start);
        if (token == "true" || token == "false" || token == "null")
            return true;
        char *end = nullptr;
        std::strtod(token.c_str(), &end);
        return !token.empty() && *end == '\0';
    }

    bool
    string(std::string &out)
    {
        if (s_[pos_++] != '"')
            return false;
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // Raw control characters are invalid.
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                return false;
            switch (char e = s_[pos_++]) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    return false;
                std::string hex = s_.substr(pos_, 4);
                char *end = nullptr;
                unsigned long code = std::strtoul(hex.c_str(), &end, 16);
                if (*end != '\0' || code >= 0x80)
                    return false; // The writers escape only ASCII.
                out += static_cast<char>(code);
                pos_ += 4;
                break;
              }
              default:
                return false;
            }
        }
        return false;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

} // namespace propeller::test

#endif // PROPELLER_TESTS_JSON_READER_H
