/**
 * @file
 * A minimal recursive-descent JSON parser shared by the standalone
 * validation tools (trace_lint, stats_lint, bench_diff): just enough
 * to read the simulator's own JSON output without external
 * dependencies.
 * Numbers are doubles; `null` is a first-class kind because the
 * stats exporter emits it for non-finite values.
 */

#ifndef TT_TOOLS_JSON_MINI_HH
#define TT_TOOLS_JSON_MINI_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace jmini
{

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue* find(const std::string& key) const
    {
        for (const auto& [k, v] : fields)
            if (k == key)
                return &v;
        return nullptr;
    }

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    /// Number or null — the exporters write null for non-finite.
    bool isNumberOrNull() const
    {
        return kind == Kind::Number || kind == Kind::Null;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : _s(text) {}

    bool parse(JsonValue& out, std::string& err)
    {
        skipWs();
        if (!value(out, err))
            return false;
        skipWs();
        if (_pos != _s.size()) {
            err = at("trailing data after top-level value");
            return false;
        }
        return true;
    }

  private:
    std::string at(const std::string& msg) const
    {
        std::size_t line = 1;
        for (std::size_t i = 0; i < _pos && i < _s.size(); ++i)
            line += _s[i] == '\n';
        std::ostringstream os;
        os << msg << " (line " << line << ")";
        return os.str();
    }

    void skipWs()
    {
        while (_pos < _s.size() &&
               std::isspace(static_cast<unsigned char>(_s[_pos])))
            ++_pos;
    }

    bool value(JsonValue& out, std::string& err)
    {
        if (_pos >= _s.size()) {
            err = at("unexpected end of input");
            return false;
        }
        const char c = _s[_pos];
        if (c == '{')
            return object(out, err);
        if (c == '[')
            return array(out, err);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.str, err);
        }
        if (c == 't' || c == 'f')
            return boolean(out, err);
        if (c == 'n')
            return literal("null", err) &&
                   (out.kind = JsonValue::Kind::Null, true);
        return number(out, err);
    }

    bool literal(const char* word, std::string& err)
    {
        const std::size_t n = std::string(word).size();
        if (_s.compare(_pos, n, word) != 0) {
            err = at(std::string("expected '") + word + "'");
            return false;
        }
        _pos += n;
        return true;
    }

    bool boolean(JsonValue& out, std::string& err)
    {
        out.kind = JsonValue::Kind::Bool;
        if (_s[_pos] == 't') {
            out.boolean = true;
            return literal("true", err);
        }
        out.boolean = false;
        return literal("false", err);
    }

    bool number(JsonValue& out, std::string& err)
    {
        const std::size_t start = _pos;
        if (_pos < _s.size() && (_s[_pos] == '-' || _s[_pos] == '+'))
            ++_pos;
        bool digits = false;
        while (_pos < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_pos])) ||
                _s[_pos] == '.' || _s[_pos] == 'e' ||
                _s[_pos] == 'E' || _s[_pos] == '-' ||
                _s[_pos] == '+')) {
            digits |=
                std::isdigit(static_cast<unsigned char>(_s[_pos]));
            ++_pos;
        }
        if (!digits) {
            err = at("expected a number");
            return false;
        }
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(_s.c_str() + start, nullptr);
        return true;
    }

    bool string(std::string& out, std::string& err)
    {
        if (_s[_pos] != '"') {
            err = at("expected '\"'");
            return false;
        }
        ++_pos;
        out.clear();
        while (_pos < _s.size() && _s[_pos] != '"') {
            char c = _s[_pos++];
            if (c == '\\') {
                if (_pos >= _s.size()) {
                    err = at("unterminated escape");
                    return false;
                }
                const char e = _s[_pos++];
                switch (e) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    // The exporters never emit \u escapes; accept
                    // and pass the raw sequence through.
                    if (_pos + 4 > _s.size()) {
                        err = at("truncated \\u escape");
                        return false;
                    }
                    out += "\\u";
                    out += _s.substr(_pos, 4);
                    _pos += 4;
                    continue;
                  default:
                    err = at("bad escape character");
                    return false;
                }
            }
            out += c;
        }
        if (_pos >= _s.size()) {
            err = at("unterminated string");
            return false;
        }
        ++_pos; // closing quote
        return true;
    }

    bool array(JsonValue& out, std::string& err)
    {
        out.kind = JsonValue::Kind::Array;
        ++_pos; // '['
        skipWs();
        if (_pos < _s.size() && _s[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            JsonValue item;
            if (!value(item, err))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (_pos >= _s.size()) {
                err = at("unterminated array");
                return false;
            }
            if (_s[_pos] == ',') {
                ++_pos;
                skipWs();
                continue;
            }
            if (_s[_pos] == ']') {
                ++_pos;
                return true;
            }
            err = at("expected ',' or ']'");
            return false;
        }
    }

    bool object(JsonValue& out, std::string& err)
    {
        out.kind = JsonValue::Kind::Object;
        ++_pos; // '{'
        skipWs();
        if (_pos < _s.size() && _s[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            std::string key;
            if (!string(key, err))
                return false;
            skipWs();
            if (_pos >= _s.size() || _s[_pos] != ':') {
                err = at("expected ':'");
                return false;
            }
            ++_pos;
            skipWs();
            JsonValue v;
            if (!value(v, err))
                return false;
            out.fields.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (_pos >= _s.size()) {
                err = at("unterminated object");
                return false;
            }
            if (_s[_pos] == ',') {
                ++_pos;
                skipWs();
                continue;
            }
            if (_s[_pos] == '}') {
                ++_pos;
                return true;
            }
            err = at("expected ',' or '}'");
            return false;
        }
    }

    const std::string& _s;
    std::size_t _pos = 0;
};

/**
 * Read and parse the JSON file at @p path into @p out; 0 on success.
 * Otherwise print why on stderr and return the tools' exit status for
 * it: 2 when the file cannot be opened ("TOOL: cannot open PATH"), 1
 * when it is not JSON ("PATH: JSON parse error: ...").
 */
inline int
readJsonFile(const char* tool, const char* path, JsonValue& out)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "%s: cannot open %s\n", tool, path);
        return 2;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();
    std::string err;
    if (!JsonParser(text).parse(out, err)) {
        std::fprintf(stderr, "%s: JSON parse error: %s\n", path,
                     err.c_str());
        return 1;
    }
    return 0;
}

} // namespace jmini

#endif // TT_TOOLS_JSON_MINI_HH
