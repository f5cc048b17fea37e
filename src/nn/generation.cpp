#include "nn/generation.hpp"

#include "nn/batched_generation.hpp"

namespace et::nn {

GenerationResult generate(core::ExecContext& ctx, GenerationSession& session,
                          const DecodeParams& params) {
  BatchedGenerationScheduler sched(session.model(), /*max_batch=*/1);
  GenerationRequest req;
  static_cast<DecodeParams&>(req) = params;
  const std::size_t id = sched.submit(std::move(req));
  return sched.run(ctx)[id];
}

GenerationResult generate(core::ExecContext& ctx, GenerationSession& session,
                          std::int32_t first_token,
                          std::size_t max_new_tokens, const EmbedFn& embed,
                          const SelectFn& select, std::int32_t eos_token) {
  DecodeParams params;
  params.first_token = first_token;
  params.max_new_tokens = max_new_tokens;
  params.embed = embed;
  params.select = select;
  params.eos_token = eos_token;
  return generate(ctx, session, params);
}

}  // namespace et::nn
