#include "build/journal.h"

#include <cstdio>

#include "support/hash.h"

namespace propeller::buildsys {

namespace {

constexpr char kMagic[4] = {'P', 'F', 'J', '2'};

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint64_t
getU64(std::span<const uint8_t> in, size_t pos)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[pos + i]) << (8 * i);
    return v;
}

} // namespace

std::vector<uint8_t>
encodeJournal(uint64_t generation, std::span<const uint8_t> payload)
{
    std::vector<uint8_t> out(kMagic, kMagic + 4);
    out.reserve(kJournalHeaderBytes + payload.size() +
                kJournalFooterBytes);
    putU64(out, generation);
    putU64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    putU64(out, contentHash(out.data(), out.size()));
    return out;
}

bool
decodeJournal(std::span<const uint8_t> file, uint64_t *generation,
              std::span<const uint8_t> *payload)
{
    if (file.size() < kJournalHeaderBytes + kJournalFooterBytes)
        return false;
    for (int i = 0; i < 4; ++i)
        if (file[i] != static_cast<uint8_t>(kMagic[i]))
            return false;
    uint64_t gen = getU64(file, 4);
    uint64_t size = getU64(file, 12);
    // The declared length must tile the file exactly: anything shorter
    // is a torn write, anything longer is trailing garbage.
    if (size != file.size() - kJournalHeaderBytes - kJournalFooterBytes)
        return false;
    size_t tail = file.size() - kJournalFooterBytes;
    if (contentHash(file.data(), tail) != getU64(file, tail))
        return false;
    if (generation)
        *generation = gen;
    if (payload)
        *payload = file.subspan(kJournalHeaderBytes, size);
    return true;
}

bool
atomicWriteFile(const std::string &path, const std::vector<uint8_t> &bytes,
                long crashAtByte)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    size_t toWrite = bytes.size();
    if (crashAtByte >= 0)
        toWrite = std::min(toWrite, static_cast<size_t>(crashAtByte));
    size_t written =
        toWrite == 0 ? 0 : std::fwrite(bytes.data(), 1, toWrite, f);
    bool ok = written == toWrite;
    ok = std::fclose(f) == 0 && ok;
    if (crashAtByte >= 0)
        return false; // Crashed mid-save: the torn temp file stays put.
    if (!ok)
        return false;
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool
readFile(const std::string &path, std::vector<uint8_t> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    // Size the buffer once from the file.  A file that grows under the
    // read is still read in full (the loop below); one that shrinks, or
    // one that cannot seek, yields what was read.
    long size = -1;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        size = std::ftell(f);
        std::rewind(f);
    }
    out.resize(size > 0 ? static_cast<size_t>(size) : 0);
    size_t n = out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
    out.resize(n);
    uint8_t buf[1 << 16];
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return true;
}

} // namespace propeller::buildsys
