#include "csl/csl.hpp"

#include <cctype>
#include <set>

#include "support/units.hpp"

namespace teamplay::csl {

namespace {

struct Token {
    std::string text;
    int line = 0;
};

std::vector<Token> tokenize(std::string_view source) {
    std::vector<Token> tokens;
    int line = 1;
    std::size_t i = 0;
    const auto is_word = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
               c == '-' || c == '.' || c == '+';
    };
    while (i < source.size()) {
        const char c = source[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
        } else if (c == '#') {
            while (i < source.size() && source[i] != '\n') ++i;
        } else if (c == '{' || c == '}' || c == ';' || c == ',') {
            tokens.push_back({std::string(1, c), line});
            ++i;
        } else if (c == '-' && i + 1 < source.size() &&
                   source[i + 1] == '>') {
            tokens.push_back({"->", line});
            i += 2;
        } else if (is_word(c)) {
            std::size_t start = i;
            // Words may contain '-' (platform names) but "->" ends a word.
            while (i < source.size() && is_word(source[i])) {
                if (source[i] == '-' && i + 1 < source.size() &&
                    source[i + 1] == '>')
                    break;
                ++i;
            }
            tokens.push_back({std::string(source.substr(start, i - start)),
                              line});
        } else {
            throw CslError(std::string("unexpected character '") + c + "'",
                           line);
        }
    }
    return tokens;
}

class Parser {
public:
    explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

    AppSpec parse_app() {
        AppSpec app;
        expect_keyword("app");
        app.name = take_word("application name");
        expect_keyword("on");
        app.platform = take_word("platform name");
        if (peek_is("deadline")) {
            advance();
            app.deadline_s = take_time("application deadline");
        }
        expect("{");
        while (!peek_is("}")) {
            if (peek_is("task")) {
                app.tasks.push_back(parse_task());
            } else if (peek_is("flow")) {
                parse_flow(app);
            } else {
                throw CslError("expected 'task' or 'flow', got '" +
                                   current().text + "'",
                               current().line);
            }
        }
        expect("}");
        if (pos_ != tokens_.size())
            throw CslError("trailing input after application block",
                           current().line);
        if (const auto error = task_list_error(app); !error.empty())
            throw CslError(error, last_line());
        return app;
    }

private:
    const Token& current() const {
        if (pos_ >= tokens_.size())
            throw CslError("unexpected end of input",
                           tokens_.empty() ? 1 : tokens_.back().line);
        return tokens_[pos_];
    }
    bool peek_is(std::string_view text) const {
        return pos_ < tokens_.size() && tokens_[pos_].text == text;
    }
    void advance() { ++pos_; }
    void expect(std::string_view text) {
        if (!peek_is(text))
            throw CslError("expected '" + std::string(text) + "', got '" +
                               (pos_ < tokens_.size() ? current().text
                                                      : "<eof>") +
                               "'",
                           pos_ < tokens_.size() ? current().line
                                                 : last_line());
        advance();
    }
    void expect_keyword(std::string_view kw) { expect(kw); }
    int last_line() const {
        return tokens_.empty() ? 1 : tokens_.back().line;
    }
    std::string take_word(const std::string& what) {
        if (pos_ >= tokens_.size())
            throw CslError("expected " + what + ", got end of input",
                           last_line());
        const Token token = current();
        if (token.text == "{" || token.text == "}" || token.text == ";" ||
            token.text == "->" || token.text == ",")
            throw CslError("expected " + what + ", got '" + token.text + "'",
                           token.line);
        advance();
        return token.text;
    }
    double take_time(const std::string& what) {
        const Token token = current();
        const std::string word = take_word(what);
        double seconds = 0.0;
        if (!support::parse_time(word, seconds))
            throw CslError("malformed time literal '" + word + "' for " +
                               what,
                           token.line);
        return seconds;
    }
    double take_energy(const std::string& what) {
        const Token token = current();
        const std::string word = take_word(what);
        double joules = 0.0;
        if (!support::parse_energy(word, joules))
            throw CslError("malformed energy literal '" + word + "' for " +
                               what,
                           token.line);
        return joules;
    }
    double take_number(const std::string& what) {
        const Token token = current();
        const std::string word = take_word(what);
        try {
            std::size_t consumed = 0;
            const double value = std::stod(word, &consumed);
            if (consumed != word.size()) throw std::invalid_argument(word);
            return value;
        } catch (const std::exception&) {
            throw CslError("malformed number '" + word + "' for " + what,
                           token.line);
        }
    }

    TaskSpec parse_task() {
        expect_keyword("task");
        TaskSpec task;
        task.name = take_word("task name");
        expect("{");
        while (!peek_is("}")) {
            const Token key_token = current();
            const std::string key = take_word("task attribute");
            if (key == "entry") {
                task.entry = take_word("entry function");
            } else if (key == "period") {
                task.period_s = take_time("period");
            } else if (key == "deadline") {
                task.deadline_s = take_time("deadline");
            } else if (key == "budget") {
                const std::string which = take_word("budget kind");
                if (which == "time") {
                    task.time_budget_s = take_time("time budget");
                } else if (which == "energy") {
                    task.energy_budget_j = take_energy("energy budget");
                } else if (which == "leakage") {
                    task.leakage_budget = take_number("leakage budget");
                } else {
                    throw CslError("unknown budget kind '" + which + "'",
                                   key_token.line);
                }
            } else if (key == "security") {
                task.security_hint = take_word("security level");
                static const std::set<std::string> levels = {
                    "none", "balance", "ladder", "auto"};
                if (!levels.contains(task.security_hint))
                    throw CslError("unknown security level '" +
                                       task.security_hint + "'",
                                   key_token.line);
            } else if (key == "core_class") {
                task.core_class = take_word("core class");
            } else if (key == "after") {
                task.deps.push_back(take_word("dependency"));
                while (peek_is(",")) {
                    advance();
                    task.deps.push_back(take_word("dependency"));
                }
            } else {
                throw CslError("unknown task attribute '" + key + "'",
                               key_token.line);
            }
            expect(";");
        }
        expect("}");
        if (task.entry.empty())
            throw CslError("task '" + task.name + "' lacks an entry function",
                           last_line());
        return task;
    }

    void parse_flow(AppSpec& app) {
        expect_keyword("flow");
        std::string previous = take_word("task name");
        bool any = false;
        while (peek_is("->")) {
            advance();
            const Token token = current();
            const std::string next = take_word("task name");
            TaskSpec* spec = nullptr;
            for (auto& task : app.tasks)
                if (task.name == next) spec = &task;
            if (spec == nullptr)
                throw CslError("flow references unknown task '" + next + "'",
                               token.line);
            bool exists = false;
            for (const auto& dep : spec->deps) exists |= dep == previous;
            if (!exists) spec->deps.push_back(previous);
            previous = next;
            any = true;
        }
        if (!any)
            throw CslError("flow must contain at least one '->'",
                           current().line);
        expect(";");
    }

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string task_list_error(const AppSpec& app) {
    std::set<std::string> names;
    for (const auto& task : app.tasks)
        if (!names.insert(task.name).second)
            return "duplicate task '" + task.name + "'";
    for (const auto& task : app.tasks)
        for (const auto& dep : task.deps)
            if (!names.contains(dep))
                return "task '" + task.name + "' depends on unknown task '" +
                       dep + "'";
    return {};
}

const TaskSpec* AppSpec::find(const std::string& task_name) const {
    for (const auto& task : tasks)
        if (task.name == task_name) return &task;
    return nullptr;
}

coordination::TaskGraph AppSpec::skeleton() const {
    coordination::TaskGraph graph;
    graph.app_name = name;
    for (const auto& spec : tasks) {
        coordination::Task task;
        task.name = spec.name;
        task.entry_fn = spec.entry;
        task.deps = spec.deps;
        task.period_s = spec.period_s;
        task.deadline_s = spec.deadline_s;
        graph.tasks.push_back(std::move(task));
    }
    return graph;
}

AppSpec parse(std::string_view source) {
    Parser parser(tokenize(source));
    return parser.parse_app();
}

}  // namespace teamplay::csl
