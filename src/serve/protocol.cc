#include "serve/protocol.hh"

#include <cmath>

namespace tia {

const char *
serveErrorCode(ServeError error)
{
    switch (error) {
      case ServeError::None:
        return "none";
      case ServeError::BadRequest:
        return "bad_request";
      case ServeError::RetryAfter:
        return "retry_after";
      case ServeError::Deadline:
        return "deadline";
      case ServeError::Hang:
        return "hang";
      case ServeError::ShuttingDown:
        return "shutting_down";
      case ServeError::Internal:
        return "internal";
    }
    return "?";
}

ServeError
parseServeErrorCode(const std::string &code)
{
    for (ServeError e : {ServeError::BadRequest, ServeError::RetryAfter,
                         ServeError::Deadline, ServeError::Hang,
                         ServeError::ShuttingDown, ServeError::Internal}) {
        if (code == serveErrorCode(e))
            return e;
    }
    return ServeError::None;
}

std::optional<std::uint64_t>
wireU64(const JsonValue &value)
{
    if (!value.isNumber())
        return std::nullopt;
    if (const std::optional<std::uint64_t> exact = value.u64())
        return exact;
    const double number = value.number();
    // Casting a double of 2^64 or more to uint64 is undefined.
    if (!(number >= 0 && number < 0x1p64) || number != std::floor(number))
        return std::nullopt;
    return static_cast<std::uint64_t>(number);
}

namespace {

/** Fetch a non-negative integral member; false + @p error on misuse. */
bool
optionalU64(const JsonValue &doc, const std::string &key,
            std::uint64_t &out, std::string *error)
{
    const JsonValue *value = doc.find(key);
    if (value == nullptr)
        return true;
    const std::optional<std::uint64_t> number = wireU64(*value);
    if (!number.has_value()) {
        if (error)
            *error = "\"" + key + "\" must be a non-negative integer";
        return false;
    }
    out = *number;
    return true;
}

} // namespace

std::optional<ServeRequest>
parseRequest(const JsonValue &doc, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };
    if (!doc.isObject())
        return fail("request must be a JSON object");

    ServeRequest request;
    if (!optionalU64(doc, "id", request.id, error))
        return std::nullopt;

    const JsonValue *method = doc.find("method");
    if (method == nullptr || !method->isString() || method->str().empty())
        return fail("request needs a non-empty string \"method\"");
    request.method = method->str();

    if (const JsonValue *client = doc.find("client")) {
        if (!client->isString())
            return fail("\"client\" must be a string");
        request.client = client->str();
    }
    if (!optionalU64(doc, "deadline_ms", request.deadlineMs, error))
        return std::nullopt;

    if (const JsonValue *params = doc.find("params")) {
        if (!params->isObject() && !params->isNull())
            return fail("\"params\" must be an object");
        request.params = *params;
    }
    return request;
}

JsonValue
makeResult(std::uint64_t id, JsonValue result)
{
    JsonValue doc = JsonValue::object();
    doc["id"] = id;
    doc["ok"] = JsonValue(true);
    doc["result"] = std::move(result);
    return doc;
}

JsonValue
makeError(std::uint64_t id, ServeError error, const std::string &message,
          std::uint64_t retryAfterMs, JsonValue detail)
{
    JsonValue doc = JsonValue::object();
    doc["id"] = id;
    doc["ok"] = JsonValue(false);
    JsonValue body = JsonValue::object();
    body["code"] = serveErrorCode(error);
    body["message"] = message;
    if (retryAfterMs > 0)
        body["retry_after_ms"] = retryAfterMs;
    if (!detail.isNull())
        body["detail"] = std::move(detail);
    doc["error"] = std::move(body);
    return doc;
}

std::optional<ServeResponse>
parseResponse(const JsonValue &doc, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };
    if (!doc.isObject())
        return fail("response must be a JSON object");

    ServeResponse response;
    if (!optionalU64(doc, "id", response.id, error))
        return std::nullopt;
    const JsonValue *ok = doc.find("ok");
    if (ok == nullptr || ok->kind() != JsonValue::Kind::Bool)
        return fail("response needs a boolean \"ok\"");
    response.ok = ok->boolean();

    if (response.ok) {
        const JsonValue *result = doc.find("result");
        if (result == nullptr)
            return fail("ok response needs a \"result\"");
        response.result = *result;
        return response;
    }

    const JsonValue *body = doc.find("error");
    if (body == nullptr || !body->isObject())
        return fail("error response needs an \"error\" object");
    const JsonValue *code = body->find("code");
    if (code == nullptr || !code->isString())
        return fail("error needs a string \"code\"");
    response.error = parseServeErrorCode(code->str());
    if (response.error == ServeError::None)
        return fail("unknown error code \"" + code->str() + "\"");
    if (const JsonValue *message = body->find("message");
        message != nullptr && message->isString())
        response.errorMessage = message->str();
    if (!optionalU64(*body, "retry_after_ms", response.retryAfterMs,
                     error))
        return std::nullopt;
    if (const JsonValue *detail = body->find("detail"))
        response.errorDetail = *detail;
    return response;
}

} // namespace tia
