// The benchmark is its own module so it builds from its own directory and
// stays out of the root module's ./... patterns; the import path keeps the
// mlmd/ prefix, which is what lets it import mlmd/internal/....
module mlmd/benchmark

go 1.24

require mlmd v0.0.0

replace mlmd => ../
